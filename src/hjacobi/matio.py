"""Matrix file I/O.

Binary format (little-endian): magic ``HJAC``, version u32, scalar-kind u32
(0 = real64, 1 = complex128), m u64, n u64, then the column-major element
payload.  A whitespace-separated text format (``m n`` header line, then rows;
complex entries as Python literals like ``(1+2j)``) is also read and written
for small matrices.  ``read_matrix`` sniffs the magic bytes.
"""

import struct

import numpy as np

from .core import as_matrix, as_signs
from .errors import HJacobiError

MAGIC = b"HJAC"
VERSION = 1
_HEADER = struct.Struct("<4sIIQQ")
_KIND = {0: np.float64, 1: np.complex128}


class MatrixFormatError(HJacobiError):
    """Malformed or unsupported matrix file."""


def write_matrix(path, M, text=False):
    M = as_matrix(M)
    if text:
        _write_text(path, M)
        return
    kind = 1 if M.dtype == np.complex128 else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, kind, M.shape[0], M.shape[1]))
        fh.write(np.ascontiguousarray(M.T).tobytes())  # column-major payload


def read_matrix(path):
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] != MAGIC:
            return _read_text(path)
        if len(head) < _HEADER.size:
            raise MatrixFormatError(f"{path}: truncated header")
        magic, version, kind, m, n = _HEADER.unpack(head)
        if version != VERSION:
            raise MatrixFormatError(f"{path}: unknown version {version}")
        if kind not in _KIND:
            raise MatrixFormatError(f"{path}: unknown scalar kind {kind}")
        dtype = _KIND[kind]
        need = m * n * np.dtype(dtype).itemsize
        # read what the file holds, not what the header claims: an m*n beyond
        # the file then cannot make read() overflow or allocate
        payload = fh.read()
        if len(payload) < need:
            raise MatrixFormatError(f"{path}: truncated payload ({len(payload)} of {need} bytes)")
        if len(payload) > need:
            raise MatrixFormatError(f"{path}: trailing bytes after payload")
    flat = np.frombuffer(payload, dtype=dtype)
    return np.asfortranarray(flat.reshape((n, m)).T)


def _write_text(path, M):
    m, n = M.shape
    with open(path, "w") as fh:
        fh.write(f"{m} {n}\n")
        for i in range(m):
            fh.write(" ".join(repr(complex(v)) if np.iscomplexobj(M) else repr(float(v))
                              for v in M[i]) + "\n")


def _read_text(path):
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise MatrixFormatError(f"{path}: missing text header")
    try:
        m, n = int(tokens[0]), int(tokens[1])
        body = tokens[2:]
        if len(body) != m * n:
            raise ValueError
        vals = [complex(t) for t in body]
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: malformed text matrix") from exc
    A = np.array(vals, dtype=np.complex128).reshape((m, n))
    if m * n == 0 or not np.iscomplexobj(A) or np.all(A.imag == 0.0):
        return np.asfortranarray(A.real)
    return np.asfortranarray(A)


def write_signs(path, signs):
    signs = as_signs(signs)  # before the file is opened, so a bad vector writes nothing
    with open(path, "w") as fh:
        fh.write(" ".join(str(int(s)) for s in signs) + "\n")


def read_signs(path):
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        vals = np.array([int(t) for t in tokens], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise MatrixFormatError(f"{path}: malformed sign vector") from exc
    return as_signs(vals)  # read wide, so an entry like 300 is a bad sign, not an overflow
