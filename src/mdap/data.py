"""Interaction data: file ingestion, core filtering, split construction,
sparse user batches and a planted-structure synthetic generator.

A dataset covers two domains, "s" and "t". Users are indexed over the
union of both domains' user sets (lexicographic id order); items are
indexed per domain, also lexicographically. Each user's interactions are
split per domain into train/valid/test by largest-remainder rounding of
the split ratios, with at least one training interaction guaranteed.
"""

import contextlib
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MdapError, ParameterError, ParseError
from .numerics import CsrRows, Rng

log = logging.getLogger(__name__)

DOMAINS = ("s", "t")
SPLITS = ("train", "valid", "test")
DEFAULT_RATIOS = (0.8, 0.1, 0.1)


# One domain's interactions in file order: an (n, 2) string array of
# user and item ids and a float64 array of their ratings.
Interactions = tuple[np.ndarray, np.ndarray]


def read_text(path: str, error: type[MdapError]) -> str:
    """The whole of a UTF-8 text file; other bytes raise `error` naming the path."""
    with open(path, "rb") as fh:
        return decode_text(fh.read(), path, error)


def decode_text(raw: bytes, path: str, error: type[MdapError]) -> str:
    """The bytes raw of the file at path as UTF-8 text, CR LF and lone CR
    read as LF (universal newlines); other bytes raise `error` naming path."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Write a file all at once: the caller writes to a temp file in the
    same directory, which replaces path only when the block completes.
    On any failure or interrupt the temp file is deleted, so path is left
    as it was and no partial file remains. Text modes write UTF-8."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_domain(path: str, strict: bool = True) -> Interactions:
    """Read one domain's interaction file.

    Expected line format: user_id, item_id, rating and an optional
    timestamp, separated by tabs. Ids must be non-empty and hold no NUL
    (numpy string arrays would drop a trailing one); timestamps are
    checked but not kept. Blank lines and lines starting with '#' are
    skipped. In strict mode any malformed line aborts the load with a
    ParseError listing the first 10 offenders; otherwise malformed lines
    are logged as warnings and dropped.
    """
    users: list[str] = []
    items: list[str] = []
    ratings: list[float] = []
    bad: list[tuple[int, str]] = []
    for lineno, line in enumerate(read_text(path, ParseError).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        problem = None
        if len(fields) < 3 or len(fields) > 4:
            problem = f"expected 3 or 4 fields, got {len(fields)}"
        else:
            user_id, item_id = fields[0].strip(), fields[1].strip()
            if not user_id or not item_id or "\0" in user_id + item_id:
                problem = "empty user or item id, or one holding NUL"
            else:
                try:
                    rating = float(fields[2])
                except ValueError:
                    problem = f"bad rating {fields[2]!r}"
                else:
                    if len(fields) == 4 and fields[3].strip():
                        try:
                            int(fields[3])
                        except ValueError:
                            problem = f"bad timestamp {fields[3]!r}"
                    if problem is None and not math.isfinite(rating):
                        problem = f"non-finite rating {fields[2]!r}"
        if problem is None:
            users.append(user_id)
            items.append(item_id)
            ratings.append(rating)
        else:
            bad.append((lineno, problem))
            if not strict:
                log.warning("%s:%d skipped: %s", path, lineno, problem)
    if strict and bad:
        shown = "; ".join(f"line {n}: {p}" for n, p in bad[:10])
        more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
        raise ParseError(f"{path}: {len(bad)} malformed line(s): {shown}{more}")
    return np.array([users, items], dtype=str).T, np.array(ratings, dtype=np.float64)


def k_core_filter(domain: Interactions, k: int) -> Interactions:
    """Drop users and items with fewer than k interactions, to a fixpoint.

    Every record counts, duplicates included, and survivors keep their
    order. k <= 1 returns the domain unchanged. Filtering is per domain;
    pass one domain at a time.
    """
    ids, ratings = domain
    if k <= 1:
        return domain
    codes = [np.unique(ids[:, col], return_inverse=True)[1] for col in (0, 1)]
    keep = np.ones(len(ids), dtype=bool)
    while True:
        strong = [np.bincount(code, weights=keep)[code] >= k for code in codes]
        next_keep = keep & strong[0] & strong[1]
        if np.array_equal(next_keep, keep):
            return ids[keep], ratings[keep]
        keep = next_keep


def split_counts(n: int, ratios: tuple[float, float, float] = DEFAULT_RATIOS) -> tuple[int, int, int]:
    """Largest-remainder split of n items into train/valid/test counts.

    Quotas are rounded to 9 decimals before flooring so float noise in
    ratio * n cannot flip a floor. Leftover units go to the largest
    remainders; ties resolve in train, valid, test order. A retained
    user always keeps at least one training interaction.
    """
    if n < 0:
        raise ParameterError(f"cannot split a negative count: {n}")
    quotas = [round(r * n, 9) for r in ratios]
    base = [int(math.floor(q)) for q in quotas]
    # round the remainders as well: intended ties (e.g. 0.4 vs 0.4) must
    # not be decided by float noise in ratio * n
    remainders = [round(q - b, 9) for q, b in zip(quotas, base)]
    leftover = n - sum(base)
    order = sorted(range(3), key=lambda i: (-remainders[i], i))
    counts = list(base)
    for i in order[:leftover]:
        counts[i] += 1
    if n > 0 and counts[0] == 0:
        donor = 1 if counts[1] >= counts[2] else 2
        counts[donor] -= 1
        counts[0] += 1
    return counts[0], counts[1], counts[2]


def index_pairs(id_pairs: dict[tuple[str, ...], list[tuple[str, str]]]) -> tuple[
        list[str], dict[str, list[str]], dict[tuple[str, ...], np.ndarray]]:
    """Index string id pairs: the one place the id order is decided.

    id_pairs maps keys whose first element is a domain, e.g. (domain,
    split), to (user id, item id) pairs. Users are indexed over all keys,
    items per domain, both in lexicographic id order. Returns (users,
    items by domain, int64 (n, 2) index pairs under each key).
    """
    id_pairs = {key: np.asarray(ids, dtype=str).reshape(-1, 2) for key, ids in id_pairs.items()}

    def vocabulary(keys: list, col: int) -> tuple[list[str], dict]:
        vocab, codes = np.unique(np.concatenate([id_pairs[key][:, col] for key in keys]),
                                 return_inverse=True)
        bounds = np.cumsum([len(id_pairs[key]) for key in keys])[:-1]
        return vocab.tolist(), dict(zip(keys, np.split(codes.astype(np.int64), bounds)))

    users, user_codes = vocabulary(list(id_pairs), 0)
    items, indexed = {}, {}
    for domain in DOMAINS:
        items[domain], item_codes = vocabulary([k for k in id_pairs if k[0] == domain], 1)
        for key, codes in item_codes.items():
            indexed[key] = np.stack([user_codes[key], codes], axis=1)
    return users, items, indexed


class InteractionDataset:
    """Immutable indexed dataset over two domains with fixed splits.

    Split membership is stored as (user_index, item_index) pair arrays
    per domain and split, sorted lexicographically; user u owns rows
    offsets[key][u]:offsets[key][u + 1] of pairs[key].
    """

    def __init__(self, users: list[str], items_s: list[str], items_t: list[str],
                 pairs: dict[tuple[str, str], np.ndarray], threshold: float = 1.0,
                 seed: int | None = None, k_core: int = 1):
        self.users = tuple(users)
        self.items = {"s": tuple(items_s), "t": tuple(items_t)}
        self.threshold = float(threshold)
        self.seed = seed
        self.k_core = int(k_core)
        self.pairs: dict[tuple[str, str], np.ndarray] = {}
        for domain in DOMAINS:
            for split in SPLITS:
                arr = np.asarray(pairs.get((domain, split), ()), dtype=np.int64).reshape(-1, 2)
                order = np.lexsort((arr[:, 1], arr[:, 0]))
                self.pairs[(domain, split)] = arr[order]
        self._validate()
        self.offsets = {key: np.searchsorted(arr[:, 0], np.arange(self.n_users + 1))
                        for key, arr in self.pairs.items()}

    def _validate(self):
        n_users = len(self.users)
        for domain in DOMAINS:
            n_items = len(self.items[domain])
            arrays = [self.pairs[(domain, split)] for split in SPLITS]
            for split, arr in zip(SPLITS, arrays):
                if arr.size:
                    if arr[:, 0].min() < 0 or arr[:, 0].max() >= n_users:
                        raise DataError(f"user index out of range in {domain}/{split}")
                    if arr[:, 1].min() < 0 or arr[:, 1].max() >= n_items:
                        raise DataError(f"item index out of range in {domain}/{split}")
            codes = np.sort(np.concatenate([arr[:, 0] * n_items + arr[:, 1] for arr in arrays]))
            repeated = codes[1:][codes[1:] == codes[:-1]]
            if repeated.size:
                key = divmod(int(repeated[0]), n_items)
                raise DataError(f"pair {key} appears more than once in domain {domain}")

    @property
    def n_users(self) -> int:
        return len(self.users)

    def n_items(self, domain: str) -> int:
        return len(self.items[domain])

    def split_size(self, domain: str, split: str) -> int:
        return int(self.pairs[(domain, split)].shape[0])

    def rows(self, domain: str, split: str) -> CsrRows:
        """One domain's split as CSR rows, one row per user, with the
        user's items in ascending order. indptr and indices are read-only
        views of offsets and pairs; nothing is copied.
        """
        key = (domain, split)
        indptr = self.offsets[key].view()
        indices = self.pairs[key][:, 1]
        indptr.flags.writeable = indices.flags.writeable = False
        return CsrRows(indptr, indices, self.n_items(domain))


def build_dataset(domain_s: Interactions, domain_t: Interactions, rng: Rng,
                  threshold: float = 1.0, k_core: int = 1) -> InteractionDataset:
    """Binarize, index and split two domains' interactions into a dataset.

    Ratings >= threshold become positive interactions, the rest are
    dropped. Duplicate (user, item) pairs collapse to one. Assignment of
    a user's items to splits is random (driven by rng) but the split
    sizes follow split_counts at DEFAULT_RATIOS. k_core is the level the
    caller's core filter used, recorded on the dataset. Raises DataError
    if either domain ends up empty after binarization.
    """
    positive: dict[tuple[str, ...], np.ndarray] = {}
    for domain, (ids, ratings) in zip(DOMAINS, (domain_s, domain_t)):
        positive[(domain,)] = ids[ratings >= threshold]
        if not len(positive[(domain,)]):
            raise DataError(f"domain {domain} has no interactions left at threshold "
                            f"{threshold} after the {k_core}-core filter")
    users, items, indexed = index_pairs(positive)

    pairs: dict[tuple[str, str], np.ndarray] = {}
    for domain in DOMAINS:
        # (user, item) codes sorted, duplicates dropped: each user's items
        # become one slice in item order
        n_items = len(items[domain])
        coded = indexed[(domain,)]
        code = np.sort(coded[:, 0] * n_items + coded[:, 1])
        code = code[np.diff(code, prepend=-1) != 0]
        owned = np.stack(np.divmod(code, n_items), axis=1)
        starts = np.searchsorted(owned[:, 0], np.arange(len(users) + 1))
        # one permutation per user with items, in user order, domain s
        # before t: this call order fixes the split files for a seed
        label = np.empty(len(owned), dtype=np.int64)
        for start, n in zip(starts[:-1].tolist(), np.diff(starts).tolist()):
            if n:
                label[start + rng.permutation(n)] = np.repeat(
                    np.arange(len(SPLITS)), split_counts(n))
        for j, split in enumerate(SPLITS):
            pairs[(domain, split)] = owned[label == j]

    return InteractionDataset(
        users, items["s"], items["t"], pairs,
        threshold=threshold, seed=rng.seed, k_core=k_core)


def sparse_batch(dataset: InteractionDataset, user_indices: np.ndarray) -> CsrRows:
    """Concatenated training rows [domain s | domain t] for a batch of
    users, in CSR form taken from each domain's training rows. Each row's
    columns ascend. User indices that are not integers, or that lie
    outside [0, n_users), raise ParameterError."""
    users = np.asarray(user_indices)
    if users.dtype.kind not in "iu":
        raise ParameterError(f"user indices must be integers, got dtype {users.dtype}")
    if users.size and (users.min() < 0 or users.max() >= dataset.n_users):
        raise ParameterError(
            f"user indices must lie in [0, {dataset.n_users}), got "
            f"{users.min()}..{users.max()}")
    s, t = (dataset.rows(domain, "train").take(users) for domain in DOMAINS)
    indptr = s.indptr + t.indptr
    indices = np.empty(indptr[-1], dtype=np.int64)
    # row r's s entries follow the t entries of rows before it; its t
    # entries follow the s entries of rows up to and including it
    indices[np.arange(len(s.indices)) + np.repeat(t.indptr[:-1], np.diff(s.indptr))] = s.indices
    indices[np.arange(len(t.indices)) + np.repeat(s.indptr[1:], np.diff(t.indptr))] = (
        t.indices + s.n_cols)
    return CsrRows(indptr, indices, s.n_cols + t.n_cols)


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a planted-structure synthetic dataset."""

    n_users: int = 200
    n_items_s: int = 40
    n_items_t: int = 30
    k_true: int = 4
    overlap: float = 0.5
    noise: float = 0.05

    def __post_init__(self):
        if self.n_users < 1:
            raise ParameterError(f"n_users must be >= 1, got {self.n_users}")
        if not 0.0 <= self.overlap <= 1.0:
            raise ParameterError(f"overlap must be in [0, 1], got {self.overlap}")
        if not 0.0 <= self.noise <= 1.0:
            raise ParameterError(f"noise must be in [0, 1], got {self.noise}")
        for name, n_items in (("n_items_s", self.n_items_s), ("n_items_t", self.n_items_t)):
            if n_items < self.k_true:
                raise ParameterError(
                    f"{name}={n_items} leaves an empty block for k_true={self.k_true}")
        if self.k_true < 1:
            raise ParameterError(f"k_true must be >= 1, got {self.k_true}")


def view_blocks(n_items: int, k_true: int) -> list[np.ndarray]:
    """Partition item indices 0..n_items-1 into k_true contiguous blocks.

    Block sizes differ by at most one; earlier blocks take the extra
    items. Raises ParameterError if any block would be empty.
    """
    if k_true < 1 or n_items < k_true:
        raise ParameterError(
            f"cannot split {n_items} items into {k_true} non-empty blocks")
    return np.array_split(np.arange(n_items, dtype=np.int64), k_true)


def synthetic_records(spec: SyntheticSpec, rng: Rng) -> tuple[
        Interactions, Interactions, dict[str, int]]:
    """Generate raw interactions with planted view structure.

    Users get ids u0000..; the first round(overlap * n_users) belong to
    both domains, the rest alternate between s-only and t-only. Each
    user's planted view is user_index mod k_true. Within a domain the
    user interacts with each item of their view's block with probability
    1 - noise and with each item outside it with probability noise; every
    rating is 1. Returns (domain s, domain t, planted view by user id).
    """
    width = max(4, len(str(spec.n_users - 1)))
    user_ids = [f"u{idx:0{width}d}" for idx in range(spec.n_users)]
    n_both = int(round(spec.overlap * spec.n_users))
    membership: dict[str, tuple[bool, bool]] = {}
    for idx, uid in enumerate(user_ids):
        if idx < n_both:
            membership[uid] = (True, True)
        elif (idx - n_both) % 2 == 0:
            membership[uid] = (True, False)
        else:
            membership[uid] = (False, True)
    planted = {uid: idx % spec.k_true for idx, uid in enumerate(user_ids)}

    item_ids = {
        "s": np.array([f"s{idx:04d}" for idx in range(spec.n_items_s)]),
        "t": np.array([f"t{idx:04d}" for idx in range(spec.n_items_t)]),
    }
    blocks = {
        "s": view_blocks(spec.n_items_s, spec.k_true),
        "t": view_blocks(spec.n_items_t, spec.k_true),
    }
    ids: dict[str, list[np.ndarray]] = {d: [np.empty((0, 2), dtype=str)] for d in DOMAINS}
    for uid in user_ids:
        for domain, present in zip(DOMAINS, membership[uid]):
            if not present:
                continue
            n_items = len(item_ids[domain])
            p = np.full(n_items, spec.noise)
            p[blocks[domain][planted[uid]]] = 1.0 - spec.noise
            draws = rng.uniform(1, n_items)[0]
            chosen = item_ids[domain][draws < p]
            ids[domain].append(np.stack([np.full(len(chosen), uid), chosen], axis=1))
    domain_s, domain_t = (np.concatenate(ids[d]) for d in DOMAINS)
    return (domain_s, np.ones(len(domain_s))), (domain_t, np.ones(len(domain_t))), planted


def generate_synthetic(spec: SyntheticSpec, rng: Rng) -> tuple[InteractionDataset, dict[str, int]]:
    """Synthetic dataset plus the planted view assignment per user id.

    Interaction generation and split assignment use derived sub-streams of
    rng, so the result is a pure function of the seed and the spec.
    """
    domain_s, domain_t, planted = synthetic_records(spec, rng.derive(0))
    dataset = build_dataset(domain_s, domain_t, rng.derive(1))
    return dataset, planted


def write_domain_file(path: str, domain: Interactions):
    """Write interactions in the standard tab-separated format, each
    rating in the shortest text that reads back as the same float."""
    ids, ratings = domain
    with atomic_open(path) as fh:
        fh.writelines(f"{user}\t{item}\t{np.format_float_positional(rating, trim='-')}\n"
                      for (user, item), rating in zip(ids.tolist(), ratings.tolist()))
