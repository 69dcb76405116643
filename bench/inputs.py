"""Seeded loss files for the benchmark, written with numpy and the stdlib only.

The generator is deliberately independent of ``canaudit.simulate`` and of
``canaudit.ingest.serialize_dataset``: a change to either must not change
the bytes the benchmark feeds the CLI.

Losses follow the Gaussian shift model: references ~ N(0, 1), canaries ~
N(-mu, 1). Rows of both roles are shuffled together. Every loss is written
as ``repr(float(x))``, the shortest string that round-trips; ``repr`` of a
numpy scalar would write ``np.float64(...)`` under numpy 2, which the CSV
parser rejects.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np


def gaussian_shift(seed: int, stream: int, m: int, n: int, mu: float,
                   bf16: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canary losses, reference losses and a row order (True = canary).

    ``stream`` separates workloads that share a seed. With ``bf16`` each
    loss is truncated toward zero to bfloat16 precision (8 significant
    bits), as a low-precision evaluation produces, so losses tie.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    references = rng.standard_normal(n)
    canaries = rng.standard_normal(m) - mu
    if bf16:
        canaries, references = _bf16(canaries), _bf16(references)
    is_canary = np.zeros(m + n, dtype=bool)
    is_canary[:m] = True
    rng.shuffle(is_canary)
    return canaries, references, is_canary


def _bf16(x: np.ndarray) -> np.ndarray:
    bits = x.astype(np.float32).view(np.uint32) & np.uint32(0xFFFF0000)
    return bits.view(np.float32).astype(np.float64)


def _rows(canaries, references, is_canary):
    """(role, loss text) in file order."""
    c = iter(canaries.tolist())
    r = iter(references.tolist())
    for flag in is_canary.tolist():
        yield ("canary", repr(next(c))) if flag else ("reference", repr(next(r)))


def write_csv(path: Path, canaries, references, is_canary) -> None:
    lines = ["role,loss"]
    lines += [f"{role},{loss}" for role, loss in _rows(canaries, references, is_canary)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_jsonl(path: Path, canaries, references, is_canary) -> None:
    lines = [f'{{"role": "{role}", "loss": {loss}}}'
             for role, loss in _rows(canaries, references, is_canary)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
