"""Interaction data: file ingestion, core filtering, split construction,
sparse user batches and a planted-structure synthetic generator.

A dataset covers two domains, "s" and "t". Users are indexed over the
union of both domains' user sets (lexicographic id order); items are
indexed per domain, also lexicographically. Each user's interactions are
split per domain into train/valid/test by largest-remainder rounding of
the fixed 80/10/10 ratios, with at least one training interaction kept.
"""

import contextlib
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MdapError, ParameterError, ParseError
from .numerics import CsrRows, Rng, check_int, check_real

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
    """The bytes raw of the file at path as UTF-8 text, a leading byte-order
    mark dropped and CR LF and lone CR read as LF (universal newlines);
    other bytes raise `error` naming path."""
    try:
        text = raw.decode("utf-8-sig")
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


def text_lines(text: str) -> tuple[np.ndarray, ...]:
    """text as columns: its code points plus an LF, the positions of its tabs and LFs, and per
    line of text.split("\\n"): start, end, index of its first tab or LF among those, field count."""
    codes = np.frombuffer((text + "\n").encode("utf-32-le"), "<u4")
    sep = np.flatnonzero((codes == 9) | (codes == 10))
    lf = np.flatnonzero(codes[sep] == 10)
    first = np.append(0, lf[:-1] + 1)
    return codes, sep, np.append(0, sep[lf[:-1]] + 1), sep[lf], first, lf - first + 1


def gather(codes: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Each text codes[start:stop] in one numpy string array as wide as the longest."""
    at = start[:, None] + np.arange(max(int((stop - start).max(initial=0)), 1))
    out = codes.take(at, mode="clip")
    out[at >= stop[:, None]] = 0
    return out.view(f"<U{at.shape[1]}")[:, 0]


def parse_fields(codes: np.ndarray, lo: np.ndarray, hi: np.ndarray, parse) -> tuple:
    """parse(t) of each text t = codes[lo:hi], once per distinct t, and where it raised
    ValueError (None there); a t past the mean line goes alone, so no array outgrows the file."""
    alone = hi - lo > len(codes) // max(len(lo), 1)
    texts, index = np.unique(gather(codes, lo, np.where(alone, lo, hi)), return_inverse=True)
    index[alone] = np.arange(len(texts), len(texts) + alone.sum())
    results = np.empty(len(texts) + alone.sum(), dtype=object)
    for k, t in enumerate(texts.tolist() + [codes[a:b].tobytes().decode("utf-32-le")
                                            for a, b in zip(lo[alone], hi[alone])]):
        with contextlib.suppress(ValueError):
            results[k] = parse(t)
    return results[index], np.equal(results, None)[index]


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
    text = read_text(path, ParseError)
    codes, sep, starts, ends, first, n_fields = text_lines(text)
    space = np.bincount(codes) > 0  # then whether chr(c) is whitespace, for each c seen
    space[space] = [chr(c).isspace() for c in np.flatnonzero(space).tolist()]

    def strip(lo, hi):  # [a, b) of each text[lo:hi].strip(), empty where b <= a
        a, b = lo.copy(), hi.copy()
        for k in np.flatnonzero((lo < hi) & (space[codes[lo]] | space[codes[hi - 1]])).tolist():
            f = text[lo[k]:hi[k]]
            a[k], b[k] = a[k] + len(f) - len(f.lstrip()), b[k] - len(f) + len(f.rstrip())
        return a, b

    lead, last = strip(starts, ends)
    # each line's first problem: -1 blank or comment, 1 field count, 2-5 below
    code = np.select([(last <= lead) | (codes[lead] == ord("#")),
                      (n_fields < 3) | (n_fields > 4)], [-1, 1])
    rows, end = np.flatnonzero(code == 0), ends[code == 0]
    t0, t1, t2 = (sep[first[rows] + k] for k in range(3))  # t2 is end on 3 fields
    (ua, ub), (ia, ib) = strip(starts[rows], t0), strip(t0 + 1, t1)
    # rating and timestamp as written: float() and int() strip less than str.strip
    (ra, rb), (ta, tb) = (t1 + 1, t2), (np.minimum(t2 + 1, end), end)
    nul = np.flatnonzero(codes == 0)  # gather drops a trailing NUL; float() and int() do not
    held = [np.searchsorted(nul, b) > np.searchsorted(nul, a)
            for a, b in ((ua, ib), (ra, rb), (ta, tb))]
    ratings, bad_rating = parse_fields(codes, ra, rb, float)
    ratings = np.where(bad_rating, np.nan, ratings).astype(np.float64)
    bad_time = parse_fields(codes, ta, tb, lambda t: int(t) if t.strip() else 0)[1]
    code[rows] = np.select([(ub <= ua) | (ib <= ia) | held[0], bad_rating | held[1],
                            bad_time | held[2], ~np.isfinite(ratings)], [2, 3, 4, 5])
    bad = np.flatnonzero(code > 0).tolist()
    problems = ("expected 3 or 4 fields, got {n}", "empty user or item id, or one holding NUL",
                "bad rating {f[2]!r}", "bad timestamp {f[3]!r}", "non-finite rating {f[2]!r}")
    report = [(j + 1, problems[code[j] - 1].format(n=n_fields[j], f=line.split("\t")))
              for j in (bad[:10] if strict else bad) for line in [text[starts[j]:ends[j]]]]
    if strict and bad:
        shown = "; ".join(f"line {n}: {p}" for n, p in report)
        more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
        raise ParseError(f"{path}: {len(bad)} malformed line(s): {shown}{more}")
    for n, problem in report:
        log.warning("%s:%d skipped: %s", path, n, problem)
    keep = code[rows] == 0
    return (np.stack([gather(codes, a[keep], b[keep]) for a, b in ((ua, ub), (ia, ib))], axis=1),
            ratings[keep])


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


def split_counts(n: int) -> tuple[int, int, int]:
    """Largest-remainder split of n items into train/valid/test at DEFAULT_RATIOS.

    Quotas are rounded to 9 decimals before flooring so float noise in
    ratio * n cannot flip a floor. Leftover units go to the largest
    remainders; ties resolve in train, valid, test order. A retained
    user always keeps at least one training interaction: at n = 1
    train's remainder (0.8) is the largest, and from n = 2 on
    floor(0.8 * n) >= 1.
    """
    n = check_int("n", n, 0)
    quotas = [round(r * n, 9) for r in DEFAULT_RATIOS]
    base = [int(math.floor(q)) for q in quotas]
    # round the remainders as well: intended ties (e.g. 0.4 vs 0.4) must
    # not be decided by float noise in ratio * n
    remainders = [round(q - b, 9) for q, b in zip(quotas, base)]
    leftover = n - sum(base)
    order = sorted(range(3), key=lambda i: (-remainders[i], i))
    counts = list(base)
    for i in order[:leftover]:
        counts[i] += 1
    return counts[0], counts[1], counts[2]


def index_pairs(id_pairs: dict[tuple[str, ...], np.ndarray]) -> tuple[
        list[str], dict[str, list[str]], dict[tuple[str, ...], np.ndarray]]:
    """Index string id pairs: the one place the id order is decided.

    id_pairs maps keys whose first element is a domain, e.g. (domain,
    split), to (n, 2) string arrays of user and item ids. Users are indexed
    over all keys, items per domain, both in lexicographic id order.
    Returns (users, items by domain, int64 (n, 2) index pairs under each key).
    """

    def vocabulary(keys: list, col: int) -> tuple[list[str], dict]:
        # np.unique's inverse by a stable sort, fast on runs of one user id
        ids = np.concatenate([id_pairs[key][:, col] for key in keys])
        order = np.argsort(ids, kind="stable")
        ordered = ids[order]
        first = np.ones(len(ids), dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        codes = np.empty(len(ids), dtype=np.int64)
        codes[order] = np.cumsum(first) - 1
        bounds = np.cumsum([len(id_pairs[key]) for key in keys])[:-1]
        return ordered[first].tolist(), dict(zip(keys, np.split(codes, bounds)))

    users, user_codes = vocabulary(list(id_pairs), 0)
    items, indexed = {}, {}
    for domain in DOMAINS:
        items[domain], item_codes = vocabulary([k for k in id_pairs if k[0] == domain], 1)
        for key, codes in item_codes.items():
            indexed[key] = np.stack([user_codes[key], codes], axis=1)
    return users, items, indexed


class InteractionDataset:
    """Immutable indexed dataset over two domains with fixed splits.

    Each (domain, split) is stored once, as a read-only CsrRows with one
    row per user: row u holds user u's item indices in ascending order.
    threshold must be a real number, k_core an integer >= 0 and seed None
    or an integer >= 0 (else ParameterError), so that the manifest they go
    into reads back.
    """

    def __init__(self, users: list[str], items_s: list[str], items_t: list[str],
                 pairs: dict[tuple[str, str], np.ndarray], threshold: float = 1.0,
                 seed: int | None = None, k_core: int = 1):
        self.users = tuple(users)
        self.items = {"s": tuple(items_s), "t": tuple(items_t)}
        self.threshold = float(check_real("threshold", threshold))
        self.seed = None if seed is None else check_int("seed", seed, 0)
        self.k_core = check_int("k_core", k_core, 0)
        keys = [(domain, split) for domain in DOMAINS for split in SPLITS]
        if unknown := [key for key in pairs if key not in keys]:
            raise DataError(f"unknown (domain, split) keys {unknown}; expected some of {keys}")
        for name, ids in (("user", self.users), *(("item", ids) for ids in self.items.values())):
            if any(a >= b for a, b in zip(ids, ids[1:])):
                raise DataError(f"{name} ids must be strictly ascending (lexicographic order)")
        self._rows: dict[tuple[str, str], CsrRows] = {}
        for domain in DOMAINS:
            n_items, codes = self.n_items(domain), []
            for split in SPLITS:
                arr = np.asarray(pairs.get((domain, split), ()))
                if arr.size and (arr.dtype.kind not in "iu" or arr.ndim != 2 or arr.shape[1] != 2):
                    raise DataError(f"{(domain, split)} pairs must be an (n, 2) integer array, "
                                    f"got dtype {arr.dtype} and shape {arr.shape}")
                user, item = np.asarray(arr, dtype=np.int64).reshape(-1, 2).T
                for name, index, n in (("user", user, self.n_users), ("item", item, n_items)):
                    if index.size and (index.min() < 0 or index.max() >= n):
                        raise DataError(f"{name} index out of range in {domain}/{split}")
                # (user, item) order as one code; sort only pairs not already
                # in it, as build_dataset and load_prepared pass them
                code = user * n_items + item
                codes.append(code if np.all(code[1:] >= code[:-1]) else np.sort(code))
            # three sorted runs: a stable sort merges them in linear time
            merged = np.sort(np.concatenate(codes), kind="stable")
            repeated = merged[1:][merged[1:] == merged[:-1]]
            if repeated.size:
                key = divmod(int(repeated[0]), n_items)
                raise DataError(f"pair {key} appears more than once in domain {domain}")
            for split, code in zip(SPLITS, codes):
                indptr = np.searchsorted(code // n_items, np.arange(self.n_users + 1))
                indices = code % n_items
                indptr.flags.writeable = indices.flags.writeable = False
                self._rows[(domain, split)] = CsrRows(indptr, indices, n_items)

    @property
    def n_users(self) -> int:
        return len(self.users)

    def n_items(self, domain: str) -> int:
        return len(self.items[domain])

    def split_size(self, domain: str, split: str) -> int:
        return len(self._rows[(domain, split)].indices)

    def rows(self, domain: str, split: str) -> CsrRows:
        """One domain's split as CSR rows, one row per user, with the
        user's items in ascending order: the dataset's only copy of the
        split, read-only, built and validated once in __init__.
        """
        return self._rows[(domain, split)]


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
        sizes = np.bincount(owned[:, 0])
        sizes = sizes[sizes > 0]
        # one permutation per user with items, in user order, domain s
        # before t: this call order fixes the split files for a seed
        perm = np.concatenate([rng.permutation(n) for n in sizes.tolist()])
        # shuffled position r of a user with n items is labelled
        # np.repeat([0, 1, 2], split_counts(n))[r]: the number of its two cuts r reaches
        distinct, which = np.unique(sizes, return_inverse=True)
        cuts = np.cumsum([split_counts(n)[:2] for n in distinct.tolist()], axis=1)[which]
        start = np.repeat(np.cumsum(sizes) - sizes, sizes)
        rank = np.arange(len(owned)) - start
        label = np.empty(len(owned), dtype=np.int8)
        label[start + perm] = np.add(*(rank >= np.repeat(cut, sizes) for cut in cuts.T),
                                     dtype=np.int8)
        for j, split in enumerate(SPLITS):
            pairs[(domain, split)] = owned[label == j]

    return InteractionDataset(
        users, items["s"], items["t"], pairs,
        threshold=threshold, seed=rng.seed, k_core=k_core)


def sparse_batch(dataset: InteractionDataset, user_indices: np.ndarray) -> CsrRows:
    """Concatenated training rows [domain s | domain t] for a batch of
    users, in CSR form taken from each domain's training rows. Each row's
    columns ascend. User indices that are not integers, or that lie
    outside [0, n_users), raise ParameterError (from CsrRows.take)."""
    s, t = (dataset.rows(domain, "train").take(user_indices) for domain in DOMAINS)
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
        for name in ("n_users", "n_items_s", "n_items_t", "k_true"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        for name in ("overlap", "noise"):
            if not 0.0 <= check_real(name, getattr(self, name)) <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name, n_items in (("n_items_s", self.n_items_s), ("n_items_t", self.n_items_t)):
            if n_items < self.k_true:
                raise ParameterError(
                    f"{name}={n_items} leaves an empty block for k_true={self.k_true}")


def view_blocks(n_items: int, k_true: int) -> list[np.ndarray]:
    """Partition item indices 0..n_items-1 into k_true contiguous blocks.

    Block sizes differ by at most one; earlier blocks take the extra
    items. Raises ParameterError if any block would be empty.
    """
    n_items, k_true = check_int("n_items", n_items, 0), check_int("k_true", k_true, 0)
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
    # the first n_both users in both domains, then s-only and t-only in turn
    membership = {uid: (idx < n_both or (idx - n_both) % 2 == 0,
                        idx < n_both or (idx - n_both) % 2 == 1)
                  for idx, uid in enumerate(user_ids)}
    planted = {uid: idx % spec.k_true for idx, uid in enumerate(user_ids)}

    sizes = dict(zip(DOMAINS, (spec.n_items_s, spec.n_items_t)))
    item_ids = {d: np.array([f"{d}{idx:04d}" for idx in range(sizes[d])]) for d in DOMAINS}
    blocks = {d: view_blocks(sizes[d], spec.k_true) for d in DOMAINS}
    ids: dict[str, list[np.ndarray]] = {d: [np.empty((0, 2), dtype=str)] for d in DOMAINS}
    for uid in user_ids:
        for domain, present in zip(DOMAINS, membership[uid]):
            if not present:
                continue
            p = np.full(sizes[domain], spec.noise)
            p[blocks[domain][planted[uid]]] = 1.0 - spec.noise
            draws = rng.uniform(1, sizes[domain])[0]
            chosen = item_ids[domain][draws < p]
            ids[domain].append(np.stack([np.full(len(chosen), uid), chosen], axis=1))
    domain_s, domain_t = (np.concatenate(ids[d]) for d in DOMAINS)
    return (domain_s, np.ones(len(domain_s))), (domain_t, np.ones(len(domain_t))), planted


def write_domain_file(path: str, domain: Interactions):
    """Write interactions in the standard tab-separated format, each
    rating in the shortest text that reads back as the same float."""
    ids, ratings = domain
    with atomic_open(path) as fh:
        fh.writelines(f"{user}\t{item}\t{np.format_float_positional(rating, trim='-')}\n"
                      for (user, item), rating in zip(ids.tolist(), ratings.tolist()))
