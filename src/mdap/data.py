"""Interaction data: file ingestion, core filtering, split construction,
dense views and a planted-structure synthetic generator.

A dataset covers two domains, "s" and "t". Users are indexed over the
union of both domains' user sets (lexicographic id order); items are
indexed per domain, also lexicographically. Each user's interactions are
split per domain into train/valid/test by largest-remainder rounding of
the split ratios, with at least one training interaction guaranteed.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ParseError
from .numerics import Rng

log = logging.getLogger(__name__)

DOMAINS = ("s", "t")
SPLITS = ("train", "valid", "test")
DEFAULT_RATIOS = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class InteractionRecord:
    """One observed user-item interaction."""

    user_id: str
    item_id: str
    rating: float
    timestamp: int | None = None

    def __post_init__(self):
        if not self.user_id or not self.item_id:
            raise DataError("user_id and item_id must be non-empty")


def load_domain(path: str, delimiter: str = "\t", strict: bool = True) -> list[InteractionRecord]:
    """Read one domain's interaction file.

    Expected line format: user_id, item_id, rating and an optional
    timestamp, separated by `delimiter`. Blank lines and lines starting
    with '#' are skipped. In strict mode any malformed line aborts the
    load with a ParseError listing the first 10 offenders; otherwise
    malformed lines are logged as warnings and dropped.
    """
    records: list[InteractionRecord] = []
    bad: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split(delimiter)
            problem = None
            if len(fields) < 3 or len(fields) > 4:
                problem = f"expected 3 or 4 fields, got {len(fields)}"
            else:
                user_id, item_id = fields[0].strip(), fields[1].strip()
                if not user_id or not item_id:
                    problem = "empty user or item id"
                else:
                    try:
                        rating = float(fields[2])
                    except ValueError:
                        problem = f"bad rating {fields[2]!r}"
                    else:
                        timestamp = None
                        if len(fields) == 4 and fields[3].strip():
                            try:
                                timestamp = int(fields[3])
                            except ValueError:
                                problem = f"bad timestamp {fields[3]!r}"
                        if problem is None and not math.isfinite(rating):
                            problem = f"non-finite rating {fields[2]!r}"
            if problem is None:
                records.append(InteractionRecord(user_id, item_id, rating, timestamp))
            else:
                bad.append((lineno, problem))
                if not strict:
                    log.warning("%s:%d skipped: %s", path, lineno, problem)
    if strict and bad:
        shown = "; ".join(f"line {n}: {p}" for n, p in bad[:10])
        more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
        raise ParseError(f"{path}: {len(bad)} malformed line(s): {shown}{more}")
    return records


def k_core_filter(records: list[InteractionRecord], k: int) -> list[InteractionRecord]:
    """Drop users and items with fewer than k interactions, to a fixpoint.

    k <= 1 returns the records unchanged. Filtering is per domain; pass
    one domain's records at a time.
    """
    if k <= 1:
        return list(records)
    kept = list(records)
    while True:
        user_count: dict[str, int] = {}
        item_count: dict[str, int] = {}
        for r in kept:
            user_count[r.user_id] = user_count.get(r.user_id, 0) + 1
            item_count[r.item_id] = item_count.get(r.item_id, 0) + 1
        next_kept = [r for r in kept
                     if user_count[r.user_id] >= k and item_count[r.item_id] >= k]
        if len(next_kept) == len(kept):
            return kept
        kept = next_kept


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


class InteractionDataset:
    """Immutable indexed dataset over two domains with fixed splits.

    Split membership is stored as (user_index, item_index) pair arrays
    per domain and split, sorted lexicographically. Treat instances as
    read-only; all derived structures are cached.
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
                arr = np.asarray(pairs.get((domain, split), np.zeros((0, 2), dtype=np.int64)),
                                 dtype=np.int64).reshape(-1, 2)
                order = np.lexsort((arr[:, 1], arr[:, 0]))
                self.pairs[(domain, split)] = arr[order]
        self._user_item_cache: dict[tuple[str, str], list[np.ndarray]] = {}
        self._validate()

    def _validate(self):
        n_users = len(self.users)
        for domain in DOMAINS:
            n_items = len(self.items[domain])
            seen: set[tuple[int, int]] = set()
            for split in SPLITS:
                arr = self.pairs[(domain, split)]
                if arr.size:
                    if arr[:, 0].min() < 0 or arr[:, 0].max() >= n_users:
                        raise DataError(f"user index out of range in {domain}/{split}")
                    if arr[:, 1].min() < 0 or arr[:, 1].max() >= n_items:
                        raise DataError(f"item index out of range in {domain}/{split}")
                for u, i in arr:
                    key = (int(u), int(i))
                    if key in seen:
                        raise DataError(
                            f"pair {key} appears in more than one split of domain {domain}")
                    seen.add(key)

    @property
    def n_users(self) -> int:
        return len(self.users)

    def n_items(self, domain: str) -> int:
        return len(self.items[domain])

    def split_size(self, domain: str, split: str) -> int:
        return int(self.pairs[(domain, split)].shape[0])

    def user_item_arrays(self, domain: str, split: str) -> list[np.ndarray]:
        """Per-user sorted item index arrays for one domain and split."""
        key = (domain, split)
        if key not in self._user_item_cache:
            buckets: list[list[int]] = [[] for _ in range(self.n_users)]
            for u, i in self.pairs[key]:
                buckets[int(u)].append(int(i))
            self._user_item_cache[key] = [np.asarray(b, dtype=np.int64) for b in buckets]
        return self._user_item_cache[key]


def build_dataset(records_s: list[InteractionRecord], records_t: list[InteractionRecord],
                  rng: Rng, threshold: float = 1.0,
                  ratios: tuple[float, float, float] = DEFAULT_RATIOS,
                  k_core: int = 1) -> InteractionDataset:
    """Binarize, index and split two domains' records into a dataset.

    Ratings >= threshold become positive interactions, the rest are
    dropped. Duplicate (user, item) pairs collapse to one. Assignment of
    a user's items to splits is random (driven by rng) but the split
    sizes follow split_counts. Raises DataError if either domain ends up
    empty after binarization.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ParameterError(f"split ratios must sum to 1, got {ratios}")
    by_domain: dict[str, dict[str, set[str]]] = {}
    for domain, records in (("s", records_s), ("t", records_t)):
        per_user: dict[str, set[str]] = {}
        for r in records:
            if r.rating >= threshold:
                per_user.setdefault(r.user_id, set()).add(r.item_id)
        if not per_user:
            raise DataError(f"domain {domain} has no interactions at threshold {threshold}")
        by_domain[domain] = per_user

    users = sorted(set(by_domain["s"]) | set(by_domain["t"]))
    user_index = {u: idx for idx, u in enumerate(users)}
    items = {d: sorted({i for its in by_domain[d].values() for i in its}) for d in DOMAINS}
    item_index = {d: {i: idx for idx, i in enumerate(items[d])} for d in DOMAINS}

    pairs: dict[tuple[str, str], list[list[int]]] = {
        (d, sp): [] for d in DOMAINS for sp in SPLITS}
    for domain in DOMAINS:
        for user in users:
            owned = by_domain[domain].get(user)
            if not owned:
                continue
            idx = sorted(item_index[domain][i] for i in owned)
            n = len(idx)
            n_train, n_valid, n_test = split_counts(n, ratios)
            perm = rng.permutation(n)
            shuffled = [idx[p] for p in perm]
            u = user_index[user]
            for item in shuffled[:n_train]:
                pairs[(domain, "train")].append([u, item])
            for item in shuffled[n_train:n_train + n_valid]:
                pairs[(domain, "valid")].append([u, item])
            for item in shuffled[n_train + n_valid:]:
                pairs[(domain, "test")].append([u, item])

    return InteractionDataset(
        users, items["s"], items["t"],
        {key: np.asarray(val, dtype=np.int64) for key, val in pairs.items()},
        threshold=threshold, seed=rng.seed, k_core=k_core)


def batch_rows(dataset: InteractionDataset, user_indices: np.ndarray,
               split: str = "train") -> np.ndarray:
    """Concatenated dense rows [domain s | domain t] for a batch of users."""
    n_s = dataset.n_items("s")
    n_t = dataset.n_items("t")
    rows = np.zeros((len(user_indices), n_s + n_t), dtype=np.float64)
    items_s = dataset.user_item_arrays("s", split)
    items_t = dataset.user_item_arrays("t", split)
    for pos, u in enumerate(user_indices):
        u = int(u)
        if items_s[u].size:
            rows[pos, items_s[u]] = 1.0
        if items_t[u].size:
            rows[pos, n_s + items_t[u]] = 1.0
    return rows


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
    base = n_items // k_true
    extra = n_items % k_true
    blocks = []
    start = 0
    for b in range(k_true):
        size = base + (1 if b < extra else 0)
        blocks.append(np.arange(start, start + size, dtype=np.int64))
        start += size
    return blocks


def synthetic_records(spec: SyntheticSpec, rng: Rng) -> tuple[
        list[InteractionRecord], list[InteractionRecord], dict[str, int]]:
    """Generate raw interaction records with planted view structure.

    Users get ids u0000..; the first round(overlap * n_users) belong to
    both domains, the rest alternate between s-only and t-only. Each
    user's planted view is user_index mod k_true. Within a domain the
    user interacts with each item of their view's block with probability
    1 - noise and with each item outside it with probability noise.
    Returns (records_s, records_t, planted view by user id).
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
        "s": [f"s{idx:04d}" for idx in range(spec.n_items_s)],
        "t": [f"t{idx:04d}" for idx in range(spec.n_items_t)],
    }
    blocks = {
        "s": view_blocks(spec.n_items_s, spec.k_true),
        "t": view_blocks(spec.n_items_t, spec.k_true),
    }
    records: dict[str, list[InteractionRecord]] = {"s": [], "t": []}
    for idx, uid in enumerate(user_ids):
        in_s, in_t = membership[uid]
        for domain, present in (("s", in_s), ("t", in_t)):
            if not present:
                continue
            n_items = len(item_ids[domain])
            p = np.full(n_items, spec.noise)
            p[blocks[domain][planted[uid]]] = 1.0 - spec.noise
            draws = rng.uniform(1, n_items)[0]
            for item_idx in np.nonzero(draws < p)[0]:
                records[domain].append(
                    InteractionRecord(uid, item_ids[domain][int(item_idx)], 1.0))
    return records["s"], records["t"], planted


def generate_synthetic(spec: SyntheticSpec, rng: Rng) -> tuple[InteractionDataset, dict[str, int]]:
    """Synthetic dataset plus the planted view assignment per user id.

    Record generation and split assignment use derived sub-streams of
    rng, so the result is a pure function of the seed and the spec.
    """
    records_s, records_t, planted = synthetic_records(spec, rng.derive(0))
    dataset = build_dataset(records_s, records_t, rng.derive(1))
    return dataset, planted


def write_domain_file(path: str, records: list[InteractionRecord]):
    """Write records in the standard tab-separated format."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            if r.timestamp is None:
                fh.write(f"{r.user_id}\t{r.item_id}\t{r.rating:g}\n")
            else:
                fh.write(f"{r.user_id}\t{r.item_id}\t{r.rating:g}\t{r.timestamp}\n")
