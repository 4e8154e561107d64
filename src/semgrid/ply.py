"""Minimal PLY read/write for the point-cloud and map export formats.

The writer writes binary files; the reader also reads ASCII ones, which
other tools produce."""

from __future__ import annotations

import numpy as np

_DTYPES = {
    "float": np.float32,
    "float32": np.float32,
    "double": np.float64,
    "float64": np.float64,
    "uchar": np.uint8,
    "uint8": np.uint8,
    "int": np.int32,
    "int32": np.int32,
}


def write_ply(path, fields: dict[str, np.ndarray]) -> None:
    """Write one binary little-endian 'vertex' element with the given
    named property columns."""
    names = list(fields)
    n = len(fields[names[0]]) if names else 0
    cols = []
    for name in names:
        col = np.asarray(fields[name])
        if len(col) != n:
            raise ValueError("all PLY columns must have equal length")
        cols.append(col)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    type_names = {np.float32: "float", np.float64: "double", np.uint8: "uchar", np.int32: "int"}
    for name, col in zip(names, cols):
        header.append(f"property {type_names[col.dtype.type]} {name}")
    header.append("end_header")
    rec = np.empty(n, dtype=[(name, col.dtype) for name, col in zip(names, cols)])
    for name, col in zip(names, cols):
        rec[name] = col
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode())
        f.write(rec.tobytes())


def read_ply(path) -> dict[str, np.ndarray]:
    """Read a single-element PLY file into named columns."""
    with open(path, "rb") as f:
        data = f.read()
    end = data.find(b"end_header")
    if end < 0:
        raise ValueError(f"{path}: not a PLY file (no end_header)")
    header = data[:end].decode("ascii", errors="replace").splitlines()
    body = data[end:]
    body = body[body.find(b"\n") + 1 :]
    if not header or header[0].strip() != "ply":
        raise ValueError(f"{path}: not a PLY file")
    binary = None
    n = None
    props: list[tuple[str, type]] = []
    for line in header[1:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "format":
            if parts[1:2] == ["ascii"]:
                binary = False
            elif parts[1:2] == ["binary_little_endian"]:
                binary = True
            else:
                raise ValueError(f"{path}: unsupported PLY format line {line.strip()!r}")
        elif parts[0] == "element":
            if parts[1:2] != ["vertex"]:
                raise ValueError(f"{path}: only vertex elements supported")
            if len(parts) != 3 or not parts[2].isdigit():
                raise ValueError(f"{path}: malformed PLY element line {line.strip()!r}")
            n = int(parts[2])
        elif parts[0] == "property":
            if parts[1:2] == ["list"]:
                raise ValueError(f"{path}: list properties not supported")
            if len(parts) != 3 or parts[1] not in _DTYPES:
                raise ValueError(f"{path}: unsupported PLY property {line.strip()!r}")
            props.append((parts[2], _DTYPES[parts[1]]))
    if binary is None or n is None:
        raise ValueError(f"{path}: incomplete PLY header")
    if binary:
        rec = np.frombuffer(body, dtype=[(name, dt) for name, dt in props], count=n)
        return {name: rec[name].copy() for name, _ in props}
    rows = []
    for line in body.decode().splitlines():
        line = line.strip()
        if line:
            rows.append(line.split())
        if len(rows) == n:
            break
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} vertices, got {len(rows)}")
    arr = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(props)))
    return {name: arr[:, i].astype(dt) for i, (name, dt) in enumerate(props)}


def read_xyz(path) -> np.ndarray:
    """Read x,y,z columns of a PLY point cloud as an (N,3) float array."""
    cols = read_ply(path)
    for axis in ("x", "y", "z"):
        if axis not in cols:
            raise ValueError(f"{path}: missing '{axis}' property")
    return np.stack(
        [cols["x"].astype(np.float64), cols["y"].astype(np.float64), cols["z"].astype(np.float64)],
        axis=1,
    )
