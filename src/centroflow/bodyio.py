"""Body JSON serialization.

Two interchangeable on-disk forms are accepted:

    {"n": 256, "h": [h_0, ..., h_{n-1}], "symmetric": true}
    {"n": 256, "fourier": {"a": [a_0, a_1, ...], "b": [b_1, ...]},
     "symmetric": true}

Writers always emit the grid form with ``"symmetric": true``.  Loading
validates the body, so a non-convex or asymmetric file is rejected at the
boundary.  ``symmetric``, when present, must be a boolean and claims nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import spectral
from .support import SupportFn, check_grid_size

__all__ = ["body_to_dict", "body_from_dict", "load_body", "save_body",
           "sha256_of_file", "atomic_write_text"]


def body_to_dict(h: SupportFn) -> dict:
    return {
        "n": int(h.n),
        "h": [float(v) for v in h.samples],
        "symmetric": True,
    }


def number_list(value, what: str) -> np.ndarray:
    """A JSON list of finite numbers as a float array, else ValueError."""
    if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max for v in value):
        raise ValueError(f"{what} must be a list of finite numbers")
    return np.array(value, dtype=float)


def body_from_dict(data: dict) -> SupportFn:
    """Validated body from parsed body JSON; any other JSON value raises
    ValueError or a CentroflowError."""
    if not isinstance(data, dict):
        raise ValueError("body JSON must be an object")
    if not isinstance(data.get("symmetric", False), bool):
        raise ValueError("symmetric must be true or false")
    if "h" in data:
        samples = number_list(data["h"], "h")
        n = samples.size if data.get("n") is None else data["n"]
        check_grid_size(n)
        if n != samples.size:
            raise ValueError("n does not match the number of samples")
    elif "fourier" in data:
        n, coeffs = data.get("n"), data["fourier"]
        if n is None or not isinstance(coeffs, dict):
            raise ValueError("the Fourier form needs an n and a 'fourier' object")
        check_grid_size(n)
        a_in = number_list(coeffs.get("a", []), "fourier a")
        b_in = number_list(coeffs.get("b", []), "fourier b")
        # the grid holds cosines up to the Nyquist mode n/2, sines below it
        for name, given, limit in (("a", a_in, n // 2 + 1), ("b", b_in, n // 2 - 1)):
            if given.size > limit:
                raise ValueError(f"fourier {name} has at most {limit} entries when n = {n}")
        a = np.pad(a_in, (0, n // 2 + 1 - a_in.size))
        b = np.pad(b_in, (1, n // 2 - b_in.size))  # b starts at the first harmonic
        samples = spectral.from_coeffs(a - 1j * b, n)
    else:
        raise ValueError("body JSON needs an 'h' or 'fourier' field")
    return SupportFn(samples)


def load_body(path) -> SupportFn:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # from the parser only: a program bug still surfaces
            raise ValueError("body JSON nests too deeply") from None
    return body_from_dict(data)


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial file.
    The file gets the mode a plain create would, 0666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates 0600
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_body(h: SupportFn, path) -> None:
    atomic_write_text(path, json.dumps(body_to_dict(h)) + "\n")


def sha256_of_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
