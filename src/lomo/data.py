"""Sequence file format, manifests, and the planted-order generator.

LSEQ is a line-oriented UTF-8 text format:

    lseq 1 <d>
    seq <id> <label> <group-or-"-"> <N>
    <d numbers> ... N data lines ...
    seq ...

Blank lines are ignored and ``#`` starts a comment line. Values are written
with shortest round-trip decimal representation, so write/read is lossless
for doubles. A manifest is a JSON file listing one sequence file per entry
together with its label, optional group, and optional fold index.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import SequenceSample, is_binary
from .errors import DataError, InfeasibleError

LSEQ_VERSION = 1
MANIFEST_VERSION = 1

NEG_MODES = ("shuffled_order", "events_absent")


def _token_error(path, lineno, message):
    return DataError(f"{path}:{lineno}: {message}")


def read_lseq(path) -> List[SequenceSample]:
    """Parse every sequence in an LSEQ file; errors carry line numbers.

    One pass over the file parses each row as it arrives, so memory follows
    the text present and nothing is sized from the N or d a header declares.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_lseq(path, _content_lines(fh))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}")


def _content_lines(fh):
    """Yield (line number, stripped text) of each line that is neither blank
    nor a comment."""
    for lineno, line in enumerate(fh, 1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield lineno, text


def _parse_lseq(path, lines) -> List[SequenceSample]:
    idx, text = next(lines, (0, ""))
    tokens = text.split()
    if len(tokens) != 3 or tokens[0] != "lseq":
        raise _token_error(path, idx, "expected header 'lseq 1 <d>'")
    if tokens[1] != str(LSEQ_VERSION):
        raise _token_error(path, idx, f"unsupported format version {tokens[1]!r}")
    try:
        dim = int(tokens[2])
    except ValueError:
        raise _token_error(path, idx, f"bad dimension {tokens[2]!r}")
    if dim < 1:
        raise _token_error(path, idx, f"dimension must be >= 1, got {dim}")

    samples: List[SequenceSample] = []
    for seq_idx, text in lines:
        tokens = text.split()
        if tokens[0] != "seq" or len(tokens) != 5:
            raise _token_error(path, seq_idx, "expected 'seq <id> <label> <group> <N>'")
        _, sid, label_s, group_s, n_s = tokens
        try:
            label = int(label_s)
            n = int(n_s)
        except ValueError:
            raise _token_error(path, seq_idx, f"bad label or length in {tokens!r}")
        if n < 1:
            raise _token_error(path, seq_idx, f"sequence length must be >= 1, got {n}")
        rows = []
        for _, (idx, text) in zip(range(n), lines):  # range first: no line read past N
            tokens = text.split()
            if len(tokens) != dim:
                raise _token_error(
                    path, idx, f"expected {dim} values, got {len(tokens)} (sequence {sid!r})"
                )
            try:
                row = np.array([float(t) for t in tokens])
            except ValueError:
                raise _token_error(path, idx, f"unparseable number in {tokens!r}")
            if not np.isfinite(row).all():
                raise _token_error(path, idx, "non-finite value")
            rows.append(row)
        if len(rows) < n:
            raise _token_error(
                path, seq_idx,
                f"unexpected end of file: sequence {sid!r} declares {n} frames, "
                f"the file ended after {len(rows)}",
            )
        group = None if group_s == "-" else group_s
        samples.append(SequenceSample(id=sid, label=label, frames=rows, group=group))
    return samples


def _check_token(value: str, what: str) -> str:
    if not value or any(ch.isspace() for ch in value):
        raise DataError(f"{what} {value!r} must be non-empty and contain no whitespace")
    return value


def write_lseq(path, samples: Sequence[SequenceSample]) -> None:
    if not samples:
        raise DataError("refusing to write an empty LSEQ file")
    dim = samples[0].dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"lseq {LSEQ_VERSION} {dim}\n")
        for s in samples:
            if s.dim != dim:
                raise DataError(f"sample {s.id!r} has dimension {s.dim}, file has {dim}")
            _check_token(s.id, "sequence id")
            group = "-" if s.group is None else _check_token(s.group, "group")
            fh.write(f"seq {s.id} {s.label} {group} {s.n_frames}\n")
            for row in s.frames:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int
    group: Optional[str] = None
    fold: Optional[int] = None


@dataclass
class Manifest:
    version: int
    dim: int
    entries: List[ManifestEntry]


def save_manifest(path, manifest: Manifest) -> None:
    payload = {
        "version": manifest.version,
        "dim": manifest.dim,
        "entries": [
            {"path": e.path, "label": e.label, "group": e.group, "fold": e.fold}
            for e in manifest.entries
        ],
    }
    write_json(path, payload)


def write_json(path, payload) -> None:
    """Write ``payload`` as sorted, 2-space-indented JSON plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json_object(path, what: str) -> dict:
    """Parse a file holding one JSON object; any failure is a DataError
    that names ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} {path} does not exist")
    except (ValueError, RecursionError) as exc:  # malformed JSON or not UTF-8
        raise DataError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    return payload


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def load_manifest(path) -> Manifest:
    payload = load_json_object(path, "manifest")
    for key in ("version", "dim", "entries"):
        if key not in payload:
            raise DataError(f"manifest {path} misses required key {key!r}")
    if not isinstance(payload["entries"], list):
        raise DataError(f"manifest {path}: 'entries' must be a list")
    try:
        version = _json_int(payload["version"], "version")
        dim = _json_int(payload["dim"], "dim")
    except TypeError as exc:
        raise DataError(f"manifest {path} has a malformed version or dim: {exc}")
    if version != MANIFEST_VERSION:
        raise DataError(f"manifest {path} has unsupported version {version}")
    entries = []
    for i, raw in enumerate(payload["entries"]):
        try:
            if not isinstance(raw, dict):
                raise TypeError("entry is not an object")
            group = raw.get("group")
            if not isinstance(raw["path"], str) or not isinstance(group, (str, type(None))):
                raise TypeError("path must be a string and group a string or null")
            entries.append(
                ManifestEntry(
                    path=raw["path"],
                    label=_json_int(raw["label"], "label"),
                    group=group,
                    fold=None if raw.get("fold") is None else _json_int(raw["fold"], "fold"),
                )
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"manifest {path} entry {i} is malformed: {exc}")
    return Manifest(version=version, dim=dim, entries=entries)


def load_dataset(manifest_path) -> Tuple[List[SequenceSample], Dict[str, Optional[int]]]:
    """Load every entry of a manifest.

    Each entry must point to a file holding exactly one sequence; the
    manifest's label and group override the in-file values. Returns the
    samples plus the id -> fold mapping (fold may be None).
    """
    manifest = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    samples: List[SequenceSample] = []
    folds: Dict[str, Optional[int]] = {}
    for entry in manifest.entries:
        full = entry.path if os.path.isabs(entry.path) else os.path.join(base, entry.path)
        if not os.path.exists(full):
            raise DataError(f"manifest references missing file {full}")
        loaded = read_lseq(full)
        if len(loaded) != 1:
            raise DataError(f"{full}: manifest entries must reference single-sequence files")
        raw = loaded[0]
        if raw.dim != manifest.dim:
            raise DataError(
                f"{full}: dimension {raw.dim} does not match manifest dimension {manifest.dim}"
            )
        sample = raw.relabel(entry.label, entry.group)
        if sample.id in folds:
            raise DataError(f"duplicate sequence id {sample.id!r} across manifest entries")
        samples.append(sample)
        folds[sample.id] = entry.fold
    if not samples:
        raise DataError(f"manifest {manifest_path} lists no entries")
    labels = sorted({s.label for s in samples})
    if not is_binary(labels):
        # multiclass mode: class indices must form a contiguous 0..C-1 set
        if labels != list(range(len(labels))):
            raise DataError(
                f"multiclass labels must form a contiguous 0..C-1 set, got {labels}"
            )
    return samples, folds


# ---------------------------------------------------------------------------
# Synthetic planted-order data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Generator settings for sequences with planted, ordered events.

    Positives carry ``m_true`` orthonormal prototype frames in canonical
    order at random positions separated by more than ``min_gap``. Negatives
    either carry the same prototypes in a uniformly drawn non-identity order
    (``shuffled_order``, isolating pure order information) or no prototypes
    at all (``events_absent``, isolating presence information). Gaussian
    noise of scale ``noise_sigma`` is added to every frame.
    """

    dim: int
    n_min: int
    n_max: int
    m_true: int
    n_pos: int
    n_neg: int
    noise_sigma: float = 0.0
    neg_mode: str = "shuffled_order"
    min_gap: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.m_true < 1:
            raise ValueError("dim and m_true must be >= 1")
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError("n_pos and n_neg must be >= 1")
        if self.n_min > self.n_max:
            raise ValueError(f"n_min {self.n_min} exceeds n_max {self.n_max}")
        if self.min_gap < 0 or self.noise_sigma < 0:
            raise ValueError("min_gap and noise_sigma must be non-negative")
        if self.n_min < self.m_true * (self.min_gap + 1):
            raise InfeasibleError(
                f"n_min {self.n_min} cannot host {self.m_true} events with "
                f"min_gap {self.min_gap}"
            )
        if self.neg_mode not in NEG_MODES:
            raise ValueError(f"neg_mode must be one of {NEG_MODES}, got {self.neg_mode!r}")
        if self.neg_mode == "shuffled_order" and self.m_true < 2:
            raise ValueError("shuffled_order negatives need m_true >= 2")


def _prototypes(rng: np.random.Generator, dim: int, m: int) -> np.ndarray:
    if dim < m:
        warnings.warn(
            f"dim {dim} < m_true {m}: prototypes cannot all be orthogonal",
            stacklevel=3,
        )
        protos = rng.standard_normal((m, dim))
        return protos / np.linalg.norm(protos, axis=1, keepdims=True)
    q, _ = np.linalg.qr(rng.standard_normal((dim, m)))
    return q.T  # orthonormal rows


def _place_events(rng: np.random.Generator, n: int, m: int, min_gap: int) -> np.ndarray:
    # Sorted distinct draws map bijectively onto placements with pairwise
    # gap >= min_gap + 1, so positions are uniform over the feasible set.
    slack = np.sort(rng.choice(n - (m - 1) * min_gap, size=m, replace=False))
    return slack + np.arange(m) * min_gap


def generate_synthetic(config: SynthConfig) -> Tuple[List[SequenceSample], List[SequenceSample]]:
    """Build (train, test) lists, each class split in half deterministically."""
    rng = np.random.default_rng(config.seed)
    protos = _prototypes(rng, config.dim, config.m_true)
    m = config.m_true

    positives = []
    placements = []
    for i in range(config.n_pos):
        n = int(rng.integers(config.n_min, config.n_max + 1))
        frames = config.noise_sigma * rng.standard_normal((n, config.dim))
        pos = _place_events(rng, n, m, config.min_gap)
        for j in range(m):
            frames[pos[j]] += protos[j]
        positives.append(SequenceSample(f"pos{i:04d}", 1, frames))
        placements.append((n, pos))

    negatives = []
    for i in range(config.n_neg):
        if config.neg_mode == "shuffled_order":
            # Reuse a positive's length and placement so the frame multiset
            # matches a concrete positive exactly when noise_sigma == 0.
            n, pos = placements[i % config.n_pos]
            frames = config.noise_sigma * rng.standard_normal((n, config.dim))
            while True:
                pattern = rng.permutation(m)
                if not np.array_equal(pattern, np.arange(m)):
                    break
            for j in range(m):
                frames[pos[pattern[j]]] += protos[j]
        else:
            n = int(rng.integers(config.n_min, config.n_max + 1))
            frames = config.noise_sigma * rng.standard_normal((n, config.dim))
        negatives.append(SequenceSample(f"neg{i:04d}", -1, frames))

    pos_split = (config.n_pos + 1) // 2
    neg_split = (config.n_neg + 1) // 2
    train = positives[:pos_split] + negatives[:neg_split]
    test = positives[pos_split:] + negatives[neg_split:]
    return train, test
