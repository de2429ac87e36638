"""Interaction ingestion, fold splitting, and the pipeline's file formats.

The split RNG is pinned to a hand-rolled SplitMix64 + FNV-1a pair instead of
a library generator so the same seed reproduces the same splits on any
platform or language. Stream derivation: a SplitMix64 seeded with the config
seed emits one sub-seed per fold, and each user's shuffle stream is seeded
with fold_seed XOR fnv1a64(user_id). Shuffling is Fisher-Yates with
rejection-sampled bounds (no modulo bias): step t of a user's c items draws
below c - t from the stream's next output.

Output t of SplitMix64(seed), counted from 1, is the finalizer
mix(seed + t * gamma) (Steele, Lea & Flood, OOPSLA 2014), so `split_folds`
draws every user's outputs of a fold in one flat numpy pass, redraws only
the lanes a rejection shifted, and runs the swaps per user on the drawn
indices. Datasets and folds stay index arrays (core.IndexedPairs) with a
subset code per pair; ids are read and written only at the file edges.
"""

from __future__ import annotations

import csv
import logging
import math
from contextlib import contextmanager
from pathlib import Path
from struct import pack
from types import SimpleNamespace
from typing import Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from recfuse.core import (
    SUBSETS,
    FoldSplit,
    IdIndex,
    InteractionDataset,
    ModelWeights,
    PredictionMatrix,
    list_contract_fault,
)

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix64_outputs(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output counters[k] (1-based) of SplitMix64(seeds[k]), elementwise:
    the finalizer of seed + counter * gamma, all in uint64."""
    with np.errstate(over="ignore"):
        z = seeds + counters * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """Outputs 1..count of SplitMix64(seed mod 2**64), as uint64."""
    return splitmix64_outputs(np.uint64(int(seed) & _MASK64),
                              np.arange(1, count + 1, dtype=np.uint64))


def _below_draws(seeds: np.ndarray, lanes: np.ndarray, steps: np.ndarray,
                 bounds: np.ndarray) -> np.ndarray:
    """Draw d is a uniform integer below bounds[d], the steps[d]-th draw
    (from 0) of lane lanes[d] from SplitMix64(seeds[lane]), by rejection: an
    output at or above 2**64 - (2**64 mod bound) is thrown away and the
    next one tried. Every draw is made at once; after a rejection, each
    later draw of its lane moves one output on and is made again."""
    bounds = bounds.astype(np.uint64)
    counters = steps.astype(np.uint64) + np.uint64(1)
    with np.errstate(over="ignore"):
        highest = np.uint64(_MASK64) - (np.uint64(0) - bounds) % bounds
    out = np.empty(steps.size, dtype=np.int64)
    todo = np.arange(steps.size)
    while todo.size:
        outputs = splitmix64_outputs(seeds[lanes[todo]], counters[todo])
        out[todo] = outputs % bounds[todo]
        rejected = todo[outputs > highest[todo]]
        if not rejected.size:
            break
        first = np.full(seeds.size, steps.size)
        np.minimum.at(first, lanes[rejected], rejected)
        todo = todo[todo >= first[lanes[todo]]]
        counters[todo] += np.uint64(1)
    return out


def _shuffled(seeds: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Lane l's Fisher-Yates shuffle of range(counts[l]) under
    SplitMix64(seeds[l]), lanes end to end: for i from count - 1 down to 1,
    swap positions i and a draw below i + 1."""
    steps_per_lane = np.maximum(counts - 1, 0)
    lanes = np.repeat(np.arange(counts.size), steps_per_lane)
    steps = np.arange(lanes.size) - np.repeat(
        np.cumsum(steps_per_lane) - steps_per_lane, steps_per_lane)
    draws = _below_draws(seeds, lanes, steps, counts[lanes] - steps).tolist()
    out: list[int] = []
    at = 0
    for count in counts.tolist():
        items = list(range(count))
        for i, j in zip(range(count - 1, 0, -1), draws[at:at + count - 1]):
            items[i], items[j] = items[j], items[i]
        at += max(count - 1, 0)
        out += items
    return np.array(out, dtype=np.int64)


# Users with fewer interactions than this go entirely to train.
MIN_SPLIT_INTERACTIONS = 5


def split_folds(dataset: InteractionDataset, seed: int, n_folds: int = 5
                ) -> list[FoldSplit]:
    """`n_folds` independent seeded train/validation/test re-splits.

    Per user and fold: the user's n interactions, in item-id order, are
    shuffled, then the last n // 5 go to test, the n // 5 before them to
    validation, and the rest (n - 2 (n // 5), so at least 60%) to train.
    Users with fewer than MIN_SPLIT_INTERACTIONS interactions go entirely
    to train. Each fold is a subset code per pair of `dataset.indexed`.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    indexed = dataset.indexed
    counts = np.bincount(indexed.user_rows, minlength=len(indexed.users))
    lanes = np.flatnonzero(counts >= MIN_SPLIT_INTERACTIONS)
    user_ids = indexed.users.ids
    hashes = np.array([fnv1a64(user_ids[u].encode("utf-8"))
                       for u in lanes.tolist()], dtype=np.uint64)
    # Where each lane's items start, and the subset of each shuffled rank.
    lane_counts = counts[lanes]
    starts = np.repeat((np.cumsum(counts) - counts)[lanes], lane_counts)
    ranks = np.arange(starts.size) - np.repeat(
        np.cumsum(lane_counts) - lane_counts, lane_counts)
    n_val = np.repeat(lane_counts // 5, lane_counts)
    n_train = np.repeat(lane_counts, lane_counts) - 2 * n_val
    subsets = ((ranks >= n_train).astype(np.uint8)
               + (ranks >= n_train + n_val))

    folds = []
    for fold_index, fold_seed in enumerate(
            splitmix64_stream(seed, n_folds)):
        codes = np.zeros(len(dataset), dtype=np.uint8)
        codes[starts + _shuffled(fold_seed ^ hashes, lane_counts)] = subsets
        folds.append(FoldSplit._of_codes(fold_index, indexed, codes))
    return folds


# -- CSV helpers -------------------------------------------------------------

def _lf_writer(write, delimiter: str = ","):
    """A csv.writer handing `write` LF-ended rows: rendered CRLF, they quote CR."""
    return csv.writer(SimpleNamespace(write=lambda row: write(row[:-2] + "\n")),
                      delimiter=delimiter, lineterminator="\r\n")


@contextmanager
def csv_writer(path: str | Path, header: Sequence[str], delimiter: str = ","
               ) -> Iterator:
    """A csv writer on a new UTF-8 file with LF line ends, header written."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = _lf_writer(fh.write, delimiter)
        writer.writerow(header)
        yield writer


@contextmanager
def _csv_reader(path: Path, delimiter: str = ",") -> Iterator:
    """A csv.reader over `path` as UTF-8 text. A csv.Error, such as a field
    over csv.field_size_limit(), raises ValueError naming its line; so does
    a byte that is not UTF-8, its line counted in the file's bytes."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            yield reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}: line {line}: not valid UTF-8") from None
        raise


def _data_rows(path: Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(1-based number of its first line, fields) of each data row of a CSV
    file that must start with the given header line. A quoted field may hold
    a line break, so a row starts on the line after the row before it ends."""
    with _csv_reader(path) as reader:
        if next(reader, None) != header:
            raise ValueError(
                f"{path}: line 1: expected header {','.join(header)!r}")
        ended = reader.line_num
        for row in reader:
            yield ended + 1, row
            ended = reader.line_num


# -- interaction files -------------------------------------------------------

_DELIMITERS = {"csv": ",", "tsv": "\t"}


def check_interaction_format(format: str, column_map: Mapping | None
                             ) -> Mapping[str, str | int]:
    """The column map of load_interactions, checked with the format."""
    if format not in _DELIMITERS:
        raise ValueError(f"unknown format {format!r}, expected 'csv' or 'tsv'")
    if column_map is None:
        return {"user": "user", "item": "item"}
    if "user" not in column_map or "item" not in column_map:
        raise ValueError("column_map must map 'user' and 'item'")
    unknown = set(column_map) - {"user", "item", "rating", "timestamp"}
    if unknown:
        raise ValueError(f"unknown column_map keys {sorted(unknown)}")
    by_name = all(isinstance(v, str) for v in column_map.values())
    by_pos = all(isinstance(v, int) for v in column_map.values())
    if not (by_name or by_pos):
        raise ValueError("column_map values must be all names or all positions")
    if by_pos and any(isinstance(v, bool) or v < 0
                      for v in column_map.values()):
        raise ValueError("column_map positions must be non-negative integers, "
                         f"got {dict(column_map)}")
    return column_map


def load_interactions(path: str | Path, format: str = "csv",
                      column_map: Mapping[str, str | int] | None = None
                      ) -> InteractionDataset:
    """Read an interaction file into a deduplicated dataset.

    Args:
        path: delimiter-separated text file.
        format: 'csv' or 'tsv'.
        column_map: maps 'user'/'item' (required) and 'rating'/'timestamp'
            (optional) to either header names (strings; first row must be a
            header) or 0-based positions (ints; the file has no header).
            Default: {'user': 'user', 'item': 'item'}.

    Malformed rows (wrong field count, blank ids, unparseable numerics, a
    non-finite timestamp) are skipped, counted, and reported via logging.

    Raises:
        ValueError: bad format/column_map, missing header columns, a line
            that is not UTF-8 or that csv.reader rejects, or zero valid rows.
        OSError: unreadable file.
    """
    column_map = check_interaction_format(format, column_map)
    by_name = isinstance(column_map["user"], str)

    path = Path(path)
    # The columns grow as the rows are read, and no row outlives its parse:
    # ids are interned, so a repeated id keeps its first string.
    ids: dict[str, str] = {}
    user_ids, item_ids = [], []
    numbers = bytearray()  # each row's rating and timestamp, two float64s
    rated = bytearray()
    n_rows = 0
    with _csv_reader(path, _DELIMITERS[format]) as reader:
        if by_name:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            positions = {}
            for field, name in column_map.items():
                if name not in header:
                    raise ValueError(f"{path}: column {name!r} not in header")
                positions[field] = header.index(name)
        else:
            positions = dict(column_map)
        needed = max(positions.values()) + 1
        user_at, item_at = positions["user"], positions["item"]
        rating_at, stamp_at = positions.get("rating"), positions.get("timestamp")
        for n_rows, row in enumerate(reader, start=1):
            # A row is malformed if any of its fields is.
            if len(row) < needed:
                continue
            user, item = row[user_at].strip(), row[item_at].strip()
            if not user or not item:
                continue
            try:
                rating, stamp = _number(row, rating_at), _number(row, stamp_at)
            except ValueError:
                continue
            # int() takes a finite float only, and truncates it.
            if stamp is not None and not math.isfinite(stamp):
                continue
            user_ids.append(ids.setdefault(user, user))
            item_ids.append(ids.setdefault(item, item))
            numbers += pack("dd", math.nan if rating is None else rating,
                            math.nan if stamp is None else stamp)
            rated.append(rating is not None)

    malformed = n_rows - len(user_ids)
    if malformed:
        log.warning("%s: skipped %d malformed row(s)", path, malformed)
    if not user_ids:
        raise ValueError(f"{path}: no valid interaction rows")
    ratings, timestamps = np.frombuffer(numbers).reshape(-1, 2).T
    return InteractionDataset._latest(user_ids, item_ids, ratings,
                                      np.frombuffer(rated, dtype=bool),
                                      np.trunc(timestamps))


def _number(row: list[str], position: int | None) -> float | None:
    """The row's field at `position` as float() reads it: None where it is
    blank or there is no such column, ValueError where float() rejects it."""
    if position is None or not row[position].strip():
        return None
    return float(row[position])


def write_interactions(dataset: InteractionDataset, path: str | Path,
                       format: str = "csv"):
    """Write a dataset with a user,item,rating,timestamp header."""
    check_interaction_format(format, None)
    with csv_writer(path, ["user", "item", "rating", "timestamp"],
                    _DELIMITERS[format]) as writer:
        writer.writerows(
            (rec.user_id, rec.item_id,
             "" if rec.rating is None else format_score(rec.rating),
             "" if rec.timestamp is None else str(rec.timestamp))
            for rec in sorted(dataset.records,
                              key=lambda r: (r.user_id, r.item_id)))


# -- prediction matrix files -------------------------------------------------

def format_score(score: float) -> str:
    """17 significant digits: enough for a lossless float64 round trip."""
    return f"{score:.17g}"


MATRIX_HEADER = ["fold", "model", "user", "item", "score"]


def write_matrix(matrix: PredictionMatrix, path: str | Path):
    """Write a matrix as CSV rows grouped by (fold, model, user)."""
    with csv_writer(path, MATRIX_HEADER) as writer:
        for (fold, model, user), items in matrix.entries():
            writer.writerows((fold, model, user, si.item_id,
                              format_score(si.score)) for si in items)


def _parse_fold(text: str) -> int:
    try:
        fold = int(text)
    except ValueError:
        raise ValueError(f"fold {text!r} is not an integer") from None
    if fold < 0:
        raise ValueError("fold must be >= 0")
    return fold


def _parse_matrix_row(row: list[str]) -> tuple[int, str, str, str, float]:
    """One data row's fields, or ValueError naming the first bad field."""
    if len(row) != 5:
        raise ValueError(f"expected 5 fields, got {len(row)}")
    fold_s, model, user, item, score_s = row
    fold = _parse_fold(fold_s)
    if not model or not user or not item:
        raise ValueError("empty id field")
    try:
        score = float(score_s)
    except ValueError:
        raise ValueError(f"score {score_s!r} is not a number") from None
    if not math.isfinite(score):
        raise ValueError("non-finite score")
    return fold, model, user, item, score


def read_matrix(path: str | Path, min_length: int | None = None) -> PredictionMatrix:
    """Read and validate a prediction-matrix CSV.

    A bad file is rejected at its first violating line, by 1-based line
    number (the header is line 1). With min_length set, every list must hold
    at least that many items (the largest k the caller will request).
    A plain file is read by columns; any other file, and any file the column
    reader doubts, row by row, which gives the same matrix or the same error.
    """
    path = Path(path)
    matrix = _read_plain_matrix(path.read_bytes())
    if matrix is None:
        matrix = _read_matrix_rows(path)
    if min_length is not None:
        try:
            matrix.ensure_supports_k(min_length)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return matrix


def _read_matrix_rows(path: Path) -> PredictionMatrix:
    """read_matrix row by row through csv.reader: the reference reader, and
    the one that names the first bad line."""
    list_of: dict[tuple[int, str, str], int] = {}   # list key -> list id
    code_of: dict[str, int] = {}                    # item id -> first-seen code
    list_ids, codes, scores, lines = [], [], [], []  # one entry per data row
    field_fault = None
    for line_no, row in _data_rows(path, MATRIX_HEADER):
        try:
            fold, model, user, item, score = _parse_matrix_row(row)
        except ValueError as exc:
            field_fault = f"{path}: line {line_no}: {exc}"
            break
        lines.append(line_no)
        list_ids.append(list_of.setdefault((fold, model, user), len(list_of)))
        codes.append(code_of.setdefault(item, len(code_of)))
        scores.append(score)
    # The rows before a bad field may break the list contract first.
    keys, item_ids, item_index = list(list_of), list(code_of), IdIndex(code_of)
    ids = np.array(list_ids, dtype=np.int64)
    items = item_index.indices(item_ids)[codes]
    flat_scores = np.array(scores, dtype=np.float64)
    fault = list_contract_fault(ids, items, flat_scores)
    if fault is not None:
        pos, reason = fault
        fold, model, user = keys[list_ids[pos]]
        raise ValueError(f"{path}: line {lines[pos]}: " + {
            "not contiguous": f"rows for fold {fold}, model {model!r}, "
                              f"user {user!r} are not contiguous",
            "non-increasing": "scores must be non-increasing within a list",
            "tie order": "tied scores must be ordered by item id ascending",
            "duplicate item": f"duplicate item {item_ids[codes[pos]]!r} in list",
        }[reason])
    if field_fault is not None:
        raise ValueError(field_fault)
    if not list_ids:
        raise ValueError(f"{path}: no data rows")
    # Contiguous lists, numbered by first appearance, lie end to end in order.
    return PredictionMatrix._from_lists(keys, np.bincount(ids), items,
                                        flat_scores, item_index)


_MATRIX_HEADER_LINE = (",".join(MATRIX_HEADER) + "\n").encode()
# The column reader takes lines of at most _MAX_LINE bytes and gathers them
# _BLOCK_ROWS at a time, and write_splits writes rows as many at a time,
# which bounds their transient arrays.
_MAX_LINE = 128
_BLOCK_ROWS = 8192


def _spans(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
           width: int) -> np.ndarray:
    """The byte spans buf[starts[r]:ends[r]] as rows, zero-padded to width.
    buf must hold width bytes from every start."""
    rows = sliding_window_view(buf, width)[starts]
    rows *= np.arange(width) < (ends - starts)[:, None]
    return rows


def _read_plain_matrix(data: bytes) -> PredictionMatrix | None:
    """The matrix in a plain file's bytes, read by columns; None for any
    other file, and for any fault, so that the row reader names it: a bad
    field (see _plain_columns), a fold int() rejects or below 0, a list key
    that comes back after another list, or a list-contract fault."""
    columns = _plain_columns(data)
    if columns is None:
        return None
    key_texts, new_list, packed, scores = columns
    lists: dict[tuple[int, str, str], None] = {}
    for text in key_texts:
        fold, model, user = text.split(",")
        try:
            key = (int(fold), model, user)
        except ValueError:
            return None
        if key[0] < 0 or key in lists:
            return None
        lists[key] = None
    # Zero padding keeps byte order, and UTF-8 byte order is code-point
    # order, so the sorted item spans are in IdIndex order.
    names, items = np.unique(packed, return_inverse=True)
    if packed.dtype == np.uint64:
        names = names.astype(">u8").view("S8")
    item_index = IdIndex(name.decode() for name in names.tolist())
    items = items.ravel().astype(np.int32)
    if list_contract_fault(np.cumsum(new_list) - 1, items, scores) is not None:
        return None
    return PredictionMatrix._from_lists(
        list(lists), np.diff(np.append(np.flatnonzero(new_list), scores.size)),
        items, scores, item_index)


def _plain_columns(data: bytes) -> tuple[list[str], np.ndarray, np.ndarray,
                                         np.ndarray] | None:
    """The columns of a plain file's bytes: the fold,model,user text of each
    list, whether each row starts a list, each row's item id zero-padded to
    an 'S' string (to the uint64 its 8 bytes spell big-endian, when no id is
    longer), and each row's score.

    Plain means: the exact header line; no '"', CR or NUL; valid UTF-8; and
    data lines of exactly four commas and at most _MAX_LINE bytes, within
    csv.field_size_limit(). On such lines str.split(',') gives the fields
    csv.reader gives. None for any other file, and when a field is empty or
    a score is not a finite float.
    """
    head = len(_MATRIX_HEADER_LINE)
    if (len(data) == head or not data.startswith(_MATRIX_HEADER_LINE)
            or b'"' in data or b"\r" in data or b"\0" in data):
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    # The bytes, a final newline if they lack one, and zeros for the
    # windows of _spans.
    size = len(data) + (not data.endswith(b"\n"))
    buf = np.zeros(size + _MAX_LINE, dtype=np.uint8)
    buf[:len(data)] = np.frombuffer(data, dtype=np.uint8)
    buf[size - 1] = ord("\n")
    ends = np.flatnonzero(buf[head:size] == ord("\n")) + head
    starts = np.concatenate(([head], ends[:-1] + 1))
    if int((ends - starts).max()) > min(_MAX_LINE, csv.field_size_limit()):
        return None
    n_rows = ends.size
    key_texts: list[str] = []
    new_list = np.ones(n_rows, dtype=bool)
    items = []
    scores = np.empty(n_rows)
    last_key = None
    for lo in range(0, n_rows, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_rows)
        line_starts, line_ends = starts[lo:hi], ends[lo:hi]
        commas = np.flatnonzero(buf[line_starts[0]:line_ends[-1]] == ord(","))
        if commas.size != 4 * (hi - lo):
            return None
        # Field f of row r lies strictly between bounds[f][r] and
        # bounds[f+1][r]. Two apart: no field is empty and every comma sits
        # in its own line, so each line holds exactly four.
        bounds = (line_starts - 1, *(commas.reshape(-1, 4).T + line_starts[0]),
                  line_ends)
        if any(np.any(b - a < 2) for a, b in zip(bounds, bounds[1:])):
            return None
        key_ends, item_ends = bounds[3], bounds[4]

        # A list starts where the fold,model,user bytes differ from the row
        # before. Padded spans are equal exactly when their bytes are, and
        # equal bytes are equal keys.
        keys = _spans(buf, line_starts, key_ends,
                      int((key_ends - line_starts).max()))
        new_list[lo + 1:hi] = (keys[1:] != keys[:-1]).any(axis=1)
        if last_key is not None:
            new_list[lo] = data[line_starts[0]:key_ends[0]] != last_key
        last_key = data[line_starts[-1]:key_ends[-1]]
        key_texts += [data[a:b].decode() for a, b in zip(
            line_starts[new_list[lo:hi]].tolist(),
            key_ends[new_list[lo:hi]].tolist())]

        width = max(8, int((item_ends - key_ends).max()) - 1)
        items.append(_spans(buf, key_ends + 1, item_ends, width
                            ).view(f"S{width}").ravel())
        # 'S' values drop the padding zeros, so these are the fields' bytes.
        width = int((line_ends - item_ends).max()) - 1
        fields = _spans(buf, item_ends + 1, line_ends, width
                        ).view(f"S{width}").ravel().tolist()
        try:
            scores[lo:hi] = list(map(float, fields))
        except ValueError:
            return None
    if not np.isfinite(scores).all():
        return None
    # Concatenation pads the ids of narrower blocks with zeros, as above.
    packed = np.concatenate(items)
    if packed.dtype.itemsize == 8:
        packed = packed.view(">u8").astype(np.uint64)
    return key_texts, new_list, packed, scores


# -- split audit files -------------------------------------------------------

SPLITS_HEADER = ["fold", "user", "item", "subset"]


def write_splits(folds: Sequence[FoldSplit], path: str | Path):
    """Audit export: one row per (fold, user, item) with its subset label,
    in (fold, user, item) order. Each id is rendered by csv.writer once and
    the rows are joined from the fields, so the bytes are csv.writer's; a
    fold is written _BLOCK_ROWS rows at a time."""
    labels = np.array([f"{name}\n" for name in SUBSETS], dtype=object)
    rendered: dict[IdIndex, list[str]] = {}
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(SPLITS_HEADER) + "\n")
        for fold in folds:
            # The pairs lie sorted by (user, item) index, which is id order.
            indexed, codes = fold.indexed, fold.codes
            for index in (indexed.users, indexed.items):
                if index not in rendered:
                    rendered[index] = _csv_fields(index.ids)
            users = np.array([f"{fold.fold_index},{user},"
                              for user in rendered[indexed.users]], dtype=object)
            items = np.array([f"{item}," for item in rendered[indexed.items]],
                             dtype=object)
            for lo in range(0, codes.size, _BLOCK_ROWS):
                block = slice(lo, lo + _BLOCK_ROWS)
                fh.write("".join((users[indexed.user_rows[block]]
                                  + items[indexed.item_cols[block]]
                                  + labels[codes[block]]).tolist()))


def _csv_fields(values: Sequence[str]) -> list[str]:
    """Each value as csv.writer renders it as one field of a row."""
    lines: list[str] = []
    _lf_writer(lines.append).writerows([value] for value in values)
    return [line[:-1] for line in lines]


def read_splits(path: str | Path) -> list[FoldSplit]:
    """Read a split audit CSV back into FoldSplit objects."""
    path = Path(path)
    per_fold: dict[int, dict[str, dict[str, set[str]]]] = {}
    subset_of: dict[tuple[int, str, str], str] = {}
    for line_no, row in _data_rows(path, SPLITS_HEADER):
        try:
            if len(row) != 4:
                raise ValueError("expected 4 fields")
            fold_s, user, item, subset = row
            fold = _parse_fold(fold_s)
            if not user or not item:
                raise ValueError("empty id field")
            if subset not in SUBSETS:
                raise ValueError(f"unknown subset {subset!r}")
            if subset_of.setdefault((fold, user, item), subset) != subset:
                raise ValueError(
                    f"subsets overlap for user {user!r} in fold {fold}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        per_fold.setdefault(fold, {"train": {}, "validation": {}, "test": {}})
        per_fold[fold][subset].setdefault(user, set()).add(item)
    if not per_fold:
        raise ValueError(f"{path}: no data rows")
    return [FoldSplit(fold, *({u: frozenset(s) for u, s in subset.items()}
                              for subset in per_fold[fold].values()))
            for fold in sorted(per_fold)]


# -- weight files ------------------------------------------------------------

WEIGHTS_HEADER = ["fold", "model", "n", "weight"]


def write_weights(weights: ModelWeights, path: str | Path):
    with csv_writer(path, WEIGHTS_HEADER) as writer:
        writer.writerows((fold, model, weights.cutoff_n, format_score(w))
                         for (fold, model), w in sorted(weights.weights.items()))


def read_weights(path: str | Path) -> ModelWeights:
    path = Path(path)
    table: dict[tuple[int, str], float] = {}
    cutoff = None
    for line_no, row in _data_rows(path, WEIGHTS_HEADER):
        try:
            if len(row) != 4:
                raise ValueError("expected 4 fields")
            fold_s, model, n_s, weight_s = row
            fold = _parse_fold(fold_s)
            if not model:
                raise ValueError("empty id field")
            try:
                n, weight = int(n_s), float(weight_s)
            except ValueError:
                raise ValueError("malformed row") from None
            if n < 1:
                raise ValueError("n must be >= 1")
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"weight {weight_s!r} must be in [0, 1]")
            if cutoff is None:
                cutoff = n
            elif n != cutoff:
                raise ValueError("mixed cutoff n")
            if (fold, model) in table:
                raise ValueError(
                    f"duplicate weight for fold {fold}, model {model!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        table[fold, model] = weight
    if cutoff is None:
        raise ValueError(f"{path}: no data rows")
    return ModelWeights(table, cutoff)


# -- fused ranked-list export --------------------------------------------------

FUSED_HEADER = ["fold", "user", "item", "score"]


def write_fused(fused_by_fold: Mapping[int, tuple[np.ndarray, ...]],
                user_index: IdIndex, item_index: IdIndex, path: str | Path):
    """Export fused top-n lists: per fold, FoldFuser.top_n's arrays."""
    with csv_writer(path, FUSED_HEADER) as writer:
        for fold in sorted(fused_by_fold):
            for u, i, s in zip(*(a.tolist() for a in fused_by_fold[fold])):
                writer.writerow([fold, user_index.id(u), item_index.id(i),
                                 format_score(s)])
