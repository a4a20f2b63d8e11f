"""JSON file formats for spectra and states.

Spectrum file:  {"hbar": <real>, "energies": [<real>, ...]}
State file:     {"dim": <int>, "re": [[<real>...]...], "im": [[<real>...]...]}

Both matrices in the state file are dim x dim, row-major.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import DensityMatrix, EnergySpectrum
from .errors import InvalidInputError

__all__ = [
    "load_spectrum",
    "save_spectrum",
    "load_state",
    "save_state",
]


def load_json_object(path) -> dict:
    """The JSON object in the file at path; InvalidInputError if the file
    cannot be read or does not hold a JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise InvalidInputError(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InvalidInputError(f"malformed JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    return doc


def load_spectrum(path) -> EnergySpectrum:
    doc = load_json_object(path)
    try:
        return EnergySpectrum(energies=doc["energies"], hbar=float(doc.get("hbar", 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: bad spectrum file: {exc}")


def save_spectrum(spectrum: EnergySpectrum, path) -> None:
    doc = {"hbar": spectrum.hbar, "energies": list(map(float, spectrum.energies))}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_state(path) -> DensityMatrix:
    doc = load_json_object(path)
    try:
        dim = int(doc["dim"])
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: bad state file: {exc}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvalidInputError(
            f"{path}: re/im must both be {dim}x{dim}, got {re.shape} and {im.shape}"
        )
    return DensityMatrix(re + 1j * im)


def save_state(rho: DensityMatrix, path) -> None:
    doc = {
        "dim": rho.dim,
        "re": rho.entries.real.tolist(),
        "im": rho.entries.imag.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
