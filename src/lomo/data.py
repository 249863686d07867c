"""Sequence file format, manifests, and the planted-order generator.

LSEQ is a line-oriented UTF-8 text format:

    lseq 1 <d>
    seq <id> <label> <group-or-"-"> <N>
    <d numbers> ... N data lines ...
    seq ...

Blank lines are ignored and ``#`` starts a comment line. A value is any
finite number Python's ``float()`` reads. Values are written with shortest
round-trip decimal representation, so write/read is lossless for doubles.
A manifest is a JSON file listing one sequence file per entry together with
its label, optional group, and optional fold index.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pickle
import warnings
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._helper import helper_process
from .core import SequenceSample, is_binary
from .errors import DataError, InfeasibleError

LSEQ_VERSION = 1
MANIFEST_VERSION = 1

NEG_MODES = ("shuffled_order", "events_absent")


def _token_error(path, lineno, message):
    return DataError(f"{path}:{lineno}: {message}")


class _Fallback(Exception):
    """A sequence block the fast reader cannot vouch for."""


def read_lseq(path) -> List[SequenceSample]:
    """Parse every sequence in an LSEQ file; errors carry line numbers.

    Each sequence's N data lines first go through numpy's C text reader in
    one call. A block it cannot read as exactly N finite rows of d values
    (a bad token, a wrong count, a non-finite value, or syntax only
    ``float()`` accepts such as ``1_0``) restarts the file from its first
    line under the per-line parser, the one source of every error message
    and line number. Either pass streams the file once, so memory follows
    the text present and nothing is sized from the N or d a header declares.
    """
    try:
        try:
            return _read_lseq(path, fast=True)
        except _Fallback:
            return _read_lseq(path, fast=False)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}")


def _read_lseq(path, fast: bool) -> List[SequenceSample]:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_lseq(path, _content_lines(fh), fast)


def _content_lines(fh):
    """Yield (line number, stripped text) of each line that is neither blank
    nor a comment."""
    for lineno, line in enumerate(fh, 1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield lineno, text


def _parse_lseq(path, lines, fast: bool) -> List[SequenceSample]:
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
        block = zip(range(n), lines)  # range first: no line read past N
        if fast:
            rows = _loadtxt_block(block, n, dim)
        else:
            rows = []
            for _, (idx, text) in block:
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


def _loadtxt_block(block, n: int, dim: int) -> np.ndarray:
    """The (n, dim) frames of one sequence's data lines, read by numpy's C
    parser in one call; raises _Fallback unless that is exactly what the
    per-line parser would return.

    ``comments=None`` keeps a mid-line ``#`` an error, as it is for
    ``float()``. The first line is taken before the call because loadtxt
    warns on an empty input. Any failure, a decode error from the file
    included, falls back, and the per-line parser then reports it.
    """
    texts = (text for _, (_, text) in block)
    try:
        first = next(texts)
        frames = np.loadtxt(
            itertools.chain((first,), texts), dtype=np.float64, comments=None, ndmin=2
        )
    except Exception:
        raise _Fallback
    if frames.shape != (n, dim) or not np.isfinite(frames).all():
        raise _Fallback
    return frames


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
    write_json(path, asdict(manifest))


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

    The files before the first missing one are read in manifest order, a
    large set of them on two processes (see ``_read_files``); the samples,
    folds and the first error raised are those of reading them one by one.
    """
    manifest = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = [e.path if os.path.isabs(e.path) else os.path.join(base, e.path)
             for e in manifest.entries]
    sizes = list(itertools.takewhile(lambda size: size is not None, map(_file_size, paths)))
    samples: List[SequenceSample] = []
    folds: Dict[str, Optional[int]] = {}
    with contextlib.closing(_read_files(paths[:len(sizes)], sizes)) as files:
        for entry, full, loaded in zip(manifest.entries, paths, files):
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
    if len(sizes) < len(paths):
        raise DataError(f"manifest references missing file {paths[len(sizes)]}")
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


# Below this many bytes of sequence files a load stays in one process.
# Forking, the copy-on-write faults that follow and handing the samples
# back cost about 20 ms a load, which only a large load earns back. On a
# 2-core x86-64 host, a two-process load of six d=1000 files broke even
# between 6 and 8 MiB (and of d=16 files near 1 MiB); the constant is
# twice the larger figure, so that no smaller load can be slowed.
_HELPER_MIN_BYTES = 16 << 20


def _file_size(path) -> Optional[int]:
    """The size of the file at ``path``, or None where ``os.path.exists``
    would call it missing."""
    try:
        return os.stat(path).st_size
    except (OSError, ValueError):
        return None


def _helper_split(sizes: List[int]) -> Optional[int]:
    """How many of the files of ``sizes`` this process reads when one forked
    helper reads the rest, or None when this process reads them all.

    A helper is worth its fork only for at least two files of
    ``_HELPER_MIN_BYTES`` in all; ``helper_process`` decides whether one can
    run. The split is contiguous and leaves the two parts as near equal in
    bytes as it can.
    """
    total = sum(sizes)
    if len(sizes) < 2 or total < _HELPER_MIN_BYTES:
        return None
    front = list(itertools.accumulate(sizes[:-1]))
    return 1 + min(range(len(front)), key=lambda j: abs(2 * front[j] - total))


def _read_files(paths: List[str], sizes: List[int]):
    """Yield ``read_lseq(path)`` for each of ``paths``, in order.

    When ``_helper_split`` splits the files and ``helper_process`` starts a
    helper, the helper reads the back part of the files while this process
    reads the front part, and then hands back the samples it loaded as one
    pickle per file. The helper stops at its first failure, and this process
    reads that file, and any file a helper that died did not deliver,
    itself: every result and exception is the one reading the files here
    one by one would give. No helper outlives the generator's close.
    """
    split = _helper_split(sizes)
    if split is None:
        yield from map(read_lseq, paths)
        return
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as incoming, contextlib.ExitStack() as stack:
        try:
            helper = stack.enter_context(
                helper_process(_send_files, paths[split:], read_end, write_end))
        finally:
            os.close(write_end)  # the helper's end: a helper that dies ends the stream
        if helper is None:
            yield from map(read_lseq, paths)
            return
        yield from map(read_lseq, paths[:split])
        delivered = _receive(incoming)
        yield from delivered
        yield from map(read_lseq, paths[split + len(delivered):])


def _send_files(paths: List[str], read_end: int, write_end: int) -> None:
    """The helper's body: read ``paths`` in order up to the first failure,
    then write each loaded file's samples as one protocol-5 pickle, which
    carries every frame array's bytes as they are.

    Nothing is written before the whole share is parsed. The parent reads
    the pipe only once it has parsed its own share, so a helper that wrote
    as it parsed would block on the pipe's 64 KiB until then, and the two
    processes would no longer parse at once.
    """
    os.close(read_end)
    files = []
    try:
        for path in paths:
            files.append(read_lseq(path))
    except Exception:  # the parent reads this file again and raises what it raises
        pass
    with open(write_end, "wb") as out:
        for loaded in files:
            pickle.dump(loaded, out, protocol=5)


def _receive(incoming) -> List[List[SequenceSample]]:
    """The files the helper loaded, in order, unpickled as the helper built
    and checked them (no other process writes to the pipe): each sample's
    frames are a read-only view of the bytes read. The list stops short
    where a helper that died left the stream unfinished."""
    files = []
    with contextlib.suppress(EOFError, pickle.UnpicklingError):
        while True:
            files.append(pickle.load(incoming))
    return files


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
    noise of scale ``noise_sigma``, a finite number, is added to every
    frame; a scale so large that a frame overflows makes
    ``generate_synthetic`` raise ``DataError``.
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
        if not np.isfinite(self.noise_sigma):
            raise ValueError(f"noise_sigma must be finite, got {self.noise_sigma}")
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


def _noise(rng: np.random.Generator, config: SynthConfig, n: int) -> np.ndarray:
    # a draw past the float range becomes +-inf with no numpy warning, and
    # SequenceSample reports it as a DataError naming the sample
    with np.errstate(over="ignore"):
        return config.noise_sigma * rng.standard_normal((n, config.dim))


def generate_synthetic(config: SynthConfig) -> Tuple[List[SequenceSample], List[SequenceSample]]:
    """Build (train, test) lists, each class split in half deterministically."""
    rng = np.random.default_rng(config.seed)
    protos = _prototypes(rng, config.dim, config.m_true)
    m = config.m_true

    positives = []
    placements = []
    for i in range(config.n_pos):
        n = int(rng.integers(config.n_min, config.n_max + 1))
        frames = _noise(rng, config, n)
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
            frames = _noise(rng, config, n)
            while True:
                pattern = rng.permutation(m)
                if not np.array_equal(pattern, np.arange(m)):
                    break
            for j in range(m):
                frames[pos[pattern[j]]] += protos[j]
        else:
            n = int(rng.integers(config.n_min, config.n_max + 1))
            frames = _noise(rng, config, n)
        negatives.append(SequenceSample(f"neg{i:04d}", -1, frames))

    pos_split = (config.n_pos + 1) // 2
    neg_split = (config.n_neg + 1) // 2
    train = positives[:pos_split] + negatives[:neg_split]
    test = positives[pos_split:] + negatives[neg_split:]
    return train, test
