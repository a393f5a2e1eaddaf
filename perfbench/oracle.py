"""Reference outputs and the rule that compares a run against them.

A reference is a fingerprint of every file a workload writes at seed 0:
its SHA-256 and enough numbers to compare it when the bytes differ.  A file
matches when its bytes are identical, or, where the arithmetic changed,
when every number is within `REL_TOL` of the reference:

* JSON (summary, config, verification report): every number, with
  ``|x - ref| <= REL_TOL * max(|ref|, 1)``; strings, flags and the layout
  must be equal, so every check's pass flag must be the same;
* CSV (trace, sweep comparison): each numeric column, relative to the
  column's largest magnitude;
* NPZ (field snapshots): small arrays number by number; for a snapshot
  array, each row's 2-norm and its projection on a fixed random vector,
  which any row within REL_TOL of the reference in 2-norm satisfies.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
_SMALL = 64           # arrays up to this size are stored number by number


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_columns(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    cols = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in body]
        try:
            cols[name] = [float(c) for c in cells]
        except ValueError:
            cols[name] = cells
    return {"header": header, "columns": cols}


def _projector(n: int) -> np.ndarray:
    return np.random.default_rng(12345).standard_normal(n)


def _npz_numbers(data: bytes) -> dict:
    out = {}
    with np.load(io.BytesIO(data)) as npz:
        for key in sorted(npz.files):
            arr = np.asarray(npz[key], dtype=float)
            if arr.size <= _SMALL:
                out[key] = {"shape": list(arr.shape),
                            "values": arr.ravel().tolist()}
            else:
                rows = arr.reshape(arr.shape[0], -1)
                w = _projector(rows.shape[1])
                out[key] = {"shape": list(arr.shape),
                            "norms": np.linalg.norm(rows, axis=1).tolist(),
                            "proj": (rows @ w).tolist(),
                            "wnorm": float(np.linalg.norm(w))}
    return out


def fingerprint_file(path: Path, data: bytes | None = None) -> dict:
    data = path.read_bytes() if data is None else data
    fp = {"sha256": _sha(data)}
    if path.suffix == ".json":
        fp["json"] = json.loads(data)
    elif path.suffix == ".csv":
        fp["csv"] = _csv_columns(data.decode("utf-8"))
    elif path.suffix == ".npz":
        fp["npz"] = _npz_numbers(data)
    return fp


def fingerprint_tree(root: Path) -> dict:
    """Fingerprint of every file under `root`, keyed by relative path."""
    return {p.relative_to(root).as_posix(): fingerprint_file(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _close(x: float, ref: float, scale: float) -> bool:
    if x == ref or (math.isnan(x) and math.isnan(ref)):
        return True
    return abs(x - ref) <= REL_TOL * max(abs(ref), scale)


def _json_diff(x, ref, where: str) -> list[str]:
    number = (int, float)
    if isinstance(ref, bool) or not isinstance(ref, number):
        if isinstance(ref, dict) and isinstance(x, dict):
            if set(x) != set(ref):
                return [f"{where}: keys differ"]
            return [d for k in ref
                    for d in _json_diff(x[k], ref[k], f"{where}.{k}")]
        if isinstance(ref, list) and isinstance(x, list):
            if len(x) != len(ref):
                return [f"{where}: length {len(x)} != {len(ref)}"]
            return [d for i, (a, b) in enumerate(zip(x, ref))
                    for d in _json_diff(a, b, f"{where}[{i}]")]
        return [] if x == ref and type(x) is type(ref) \
            else [f"{where}: {x!r} != {ref!r}"]
    if isinstance(x, bool) or not isinstance(x, number) \
            or not _close(float(x), float(ref), 1.0):
        return [f"{where}: {x!r} != {ref!r}"]
    return []


def _csv_diff(x: dict, ref: dict, where: str) -> list[str]:
    if x["header"] != ref["header"]:
        return [f"{where}: header differs"]
    out = []
    for name, rcol in ref["columns"].items():
        col = x["columns"][name]
        if len(col) != len(rcol):
            out.append(f"{where}:{name}: {len(col)} rows != {len(rcol)}")
        elif rcol and isinstance(rcol[0], float):
            if not isinstance(col[0], float):
                out.append(f"{where}:{name}: not numeric")
                continue
            scale = max(abs(v) for v in rcol)
            bad = [i for i, (a, b) in enumerate(zip(col, rcol))
                   if not _close(a, b, scale)]
            if bad:
                out.append(f"{where}:{name}: row {bad[0]} {col[bad[0]]!r} "
                           f"!= {rcol[bad[0]]!r} ({len(bad)} rows)")
        elif col != rcol:
            out.append(f"{where}:{name}: values differ")
    return out


def _npz_diff(x: dict, ref: dict, where: str) -> list[str]:
    if set(x) != set(ref):
        return [f"{where}: arrays {sorted(x)} != {sorted(ref)}"]
    out = []
    for key, r in ref.items():
        a = x[key]
        if a["shape"] != r["shape"]:
            out.append(f"{where}:{key}: shape {a['shape']} != {r['shape']}")
        elif "values" in r:
            scale = max((abs(v) for v in r["values"]), default=0.0)
            if not all(_close(u, v, scale)
                       for u, v in zip(a["values"], r["values"])):
                out.append(f"{where}:{key}: values differ")
        else:
            for i, (n, p, rn, rp) in enumerate(zip(
                    a["norms"], a["proj"], r["norms"], r["proj"])):
                if abs(n - rn) > REL_TOL * rn \
                        or abs(p - rp) > REL_TOL * r["wnorm"] * rn:
                    out.append(f"{where}:{key}: row {i} differs")
                    break
    return out


def compare_tree(root: Path, ref: dict, select=lambda rel: True
                 ) -> list[str]:
    """Mismatches of the files under `root` against the reference `ref`.

    Only relative paths for which `select` is true are compared; a selected
    file that the reference lacks is a mismatch too.
    """
    root = Path(root)
    want = {k: v for k, v in ref.items() if select(k)}
    found = {p.relative_to(root).as_posix() for p in root.rglob("*")
             if p.is_file()} if root.is_dir() else set()
    problems = [f"{k}: not in the reference"
                for k in sorted(found - set(want)) if select(k)]
    for rel, r in sorted(want.items()):
        if rel not in found:
            problems.append(f"{rel}: missing")
            continue
        data = (root / rel).read_bytes()
        if _sha(data) == r["sha256"]:
            continue
        fp = fingerprint_file(root / rel, data)
        if "json" in r:
            problems += _json_diff(fp["json"], r["json"], rel)
        elif "csv" in r:
            problems += _csv_diff(fp["csv"], r["csv"], rel)
        elif "npz" in r:
            problems += _npz_diff(fp["npz"], r["npz"], rel)
        else:
            problems.append(f"{rel}: bytes differ")
    return problems
