import logging
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mdap.data import (DEFAULT_RATIOS, SPLITS, InteractionDataset, SyntheticSpec,
                       build_dataset, index_pairs, k_core_filter,
                       load_domain, read_text, sparse_batch, split_counts, synthetic_records, view_blocks,
                       write_domain_file)
from mdap.errors import DataError, ParameterError, ParseError
from mdap.numerics import Rng
from oracles import split_pairs, synthetic_dataset
from sparse_rows import dense

KEYS = [(domain, split) for domain in ("s", "t") for split in SPLITS]


def dom(*rows):
    """One domain's (ids, ratings) from (user, item[, rating]) rows; the
    rating defaults to 1."""
    ids = np.array([row[:2] for row in rows], dtype=str).reshape(-1, 2)
    return ids, np.array([row[2] if len(row) > 2 else 1.0 for row in rows])


def rows_of(domain):
    """(user, item, rating) tuples of one domain, in order."""
    ids, ratings = domain
    return [(u, i, r) for (u, i), r in zip(ids.tolist(), ratings.tolist())]


def test_load_domain_parses_comments_blanks_timestamps(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("# header\n"
                    "u1\ti1\t4.5\t1609459200\n"
                    "\n"
                    "u2\ti2\t3\n"
                    "   \n"
                    "u3\ti1\t1.0\t\n")
    ids, ratings = load_domain(str(path))
    assert ids.shape == (3, 2) and ratings.dtype == np.float64
    assert rows_of((ids, ratings)) == [("u1", "i1", 4.5), ("u2", "i2", 3.0), ("u3", "i1", 1.0)]


def test_load_domain_drops_a_utf8_byte_order_mark(tmp_path):
    # The mark is not part of the first user id: read as one, 'u1' would
    # be indexed twice, once as '\ufeffu1'.
    text = b"u1\ti1\t5\nu2\ti1\t4\nu1\ti2\t3\n"
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    ids, ratings = load_domain(str(plain))
    ids_marked, ratings_marked = load_domain(str(marked))
    assert np.array_equal(ids_marked, ids) and np.array_equal(ratings_marked, ratings)
    assert sorted(set(ids_marked[:, 0].tolist())) == ["u1", "u2"]


def test_load_domain_strict_reports_line_numbers(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("u1\ti1\t1.0\nhalf a line\nu2\ti2\tNaN\nu3\ti3\tx\nu4\0\ti4\t1\n"
                    "\ti5\t1\nu6\t\t1\nu7\ti7\0\t1\nu8\ti8\t1\tnoon\nu9\ti9\t1\t12\n")
    with pytest.raises(ParseError) as err:
        load_domain(str(path))
    msg = str(err.value)
    assert "8 malformed" in msg
    assert all(f"line {n}:" in msg for n in range(2, 10))
    assert "line 1:" not in msg and "line 10:" not in msg
    assert "bad timestamp 'noon'" in msg


def test_load_domain_strict_caps_report_at_ten_lines(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("".join(f"only{n}\n" for n in range(12)))
    with pytest.raises(ParseError) as err:
        load_domain(str(path))
    msg = str(err.value)
    assert "12 malformed" in msg
    assert "line 10" in msg and "line 11" not in msg


def test_load_domain_lenient_skips_and_warns(tmp_path, caplog):
    path = tmp_path / "d.tsv"
    path.write_text("u1\ti1\t1.0\nbroken\nu2\ti2\t2.0\n")
    with caplog.at_level(logging.WARNING, logger="mdap.data"):
        ids, _ = load_domain(str(path), strict=False)
    assert ids[:, 0].tolist() == ["u1", "u2"]
    assert any("skipped" in m for m in caplog.messages)


def load_domain_reference(path, strict=True):
    """The per-line loop the columnar load_domain replaced, kept as its
    reference: same arrays, same ParseError text, same warnings."""
    log = logging.getLogger("mdap.data")
    users, items, ratings, bad = [], [], [], []
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


PADS = ["", " ", "\u00a0", "\u3000", " \u3000", "\x0b", "\x1f", "\x85", "\u2028"]
GOOD_IDS = ["u1", "u2", "i7", "é", "x y", "用户", "1_0", "😀", "a\ufeffb", "#1"]
GOOD_RATINGS = ["1", "4.5", "1_0", " 5 ", "١", "-0", "2e-3", "\u30003\u00a0", "+.5", "٣.٥",
                "1E5", "\x0b7\x85"]
GOOD_TIMES = [" 12 ", "-3", "", " ", "١٢", "1609459200", "+5", "\u3000", "1_000", "9" * 400]
BAD_IDS = ["", " ", "u\0", "u\0x", "\0"]
BAD_RATINGS = ["inf", "nan", "1e400", "-inf", "x", "", " ", "1\0", "1\0 ", "\0", "0x1", "1__0",
               "1 2", "\x0c7\x1c"]
BAD_TIMES = ["1.5", "noon", "12\0", " \0 ", "0x1", "12 3", "1e3", "7\x1f"]
BLANKS = ["", " ", "\t", "\u3000", " \u00a0 \t", "\x0b\x0c", "\x85", "\t\t\t"]
COMMENTS = ["#", "# a\tb\tc", "  # x", "\u3000#y", "\t#\t1\t2"]


def domain_corpus(seed, n_lines, dirty):
    """Domain-file text of n_lines random lines; clean corpora hold only
    lines that load, dirty ones every kind of malformed line too."""
    rng = random.Random(seed)

    def pick(good, bad):
        return rng.choice(good + bad if dirty and rng.random() < 0.3 else good)

    def padded(text):
        return rng.choice(PADS) + text + rng.choice(PADS)

    lines = []
    for _ in range(n_lines):
        kind = rng.random()
        if kind < 0.1:
            lines.append(rng.choice(BLANKS))
        elif kind < 0.2:
            lines.append(rng.choice(COMMENTS))
        else:
            fields = [padded(pick(GOOD_IDS, BAD_IDS)), padded(pick(GOOD_IDS, BAD_IDS)),
                      pick(GOOD_RATINGS, BAD_RATINGS)]
            if rng.random() < 0.5:
                fields.append(pick(GOOD_TIMES, BAD_TIMES))
            if dirty and rng.random() < 0.1:
                fields = fields[:rng.choice([1, 2])] + ["x"] * rng.choice([0, 2, 3])
            lines.append("\t".join(fields))
    return "\n".join(lines) + rng.choice(["", "\n"])


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
def test_load_domain_matches_per_line_reference(tmp_path, caplog, seed, dirty):
    path = str(tmp_path / "d.tsv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(domain_corpus(seed, 300, dirty))
    for strict in (True, False):
        outcomes = []
        for load in (load_domain, load_domain_reference):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="mdap.data"):
                try:
                    result = load(path, strict=strict)
                except ParseError as exc:
                    result = str(exc)
            outcomes.append((result, [(r.levelno, r.getMessage()) for r in caplog.records]))
        (got, got_log), (want, want_log) = outcomes
        assert got_log == want_log
        assert isinstance(got, str) == isinstance(want, str) == (strict and dirty)
        if isinstance(want, str):
            assert got == want
        else:
            assert got[0].dtype.kind == "U" and got[1].dtype == np.float64
            assert got[0].shape == want[0].shape and np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert len(want[0]) > 100


def test_load_domain_memory_follows_the_ids_not_the_longest_line(tmp_path, caplog):
    # A string array of whole lines would be 2002 x 16 Ki characters x 4
    # bytes, about 128 MiB; the ids here need a few KiB.
    lines = [f"u{n}\ti{n % 50}\t{n % 5 + 1}\n" for n in range(2000)]
    lines.insert(700, "#" + "c" * 16 * 1024 + "\n")
    lines.insert(1400, "x" * 16 * 1024 + "\n")
    path = tmp_path / "d.tsv"
    path.write_text("".join(lines))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            load_domain(str(path))
        with caplog.at_level(logging.WARNING, logger="mdap.data"):
            ids, ratings = load_domain(str(path), strict=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (f"{path}: 1 malformed line(s): "
                              "line 1401: expected 3 or 4 fields, got 1")
    assert caplog.messages == [f"{path}:1401 skipped: expected 3 or 4 fields, got 1"]
    assert ids.shape == (2000, 2) and ids[1999].tolist() == ["u1999", "i49"]
    assert ratings.sum() == 2000 * 3
    assert peak < 16 * 2**20, peak


def test_load_domain_parses_a_long_rating_on_its_own(tmp_path):
    # A column as wide as this 4 Ki-digit rating would take about 2000 x
    # 4 Ki characters x 4 bytes, 32 MiB; it is parsed as a Python string.
    lines = [f"u{n}\ti{n % 50}\t{n % 5 + 1}\n" for n in range(2000)]
    path = tmp_path / "d.tsv"
    path.write_text("".join(lines) + "u0\ti0\t" + "0" * 4096 + "7\n")
    tracemalloc.start()
    try:
        ids, ratings = load_domain(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ids.shape == (2001, 2) and ratings[-1] == 7.0
    assert peak < 16 * 2**20, peak


def test_load_domain_reads_crlf_and_lone_cr_as_lf(tmp_path):
    text = "# header\nu1\ti1\t5\n\nu2\ti2\t4\t12\n  \nu1\ti2\t3\n"
    loaded, errors = [], []
    for name, eol in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(text.replace("\n", eol).encode("utf-8"))
        loaded.append(load_domain(str(path)))
        broken = tmp_path / f"{name}_broken.tsv"
        broken.write_bytes((text + "u3\ti3\n").replace("\n", eol).encode("utf-8"))
        with pytest.raises(ParseError) as err:
            load_domain(str(broken))
        errors.append(str(err.value).replace(str(broken), "<path>"))
    for ids, ratings in loaded:
        assert ids.tolist() == [["u1", "i1"], ["u2", "i2"], ["u1", "i2"]]
        assert ratings.tolist() == [5.0, 4.0, 3.0]
    assert errors == ["<path>: 1 malformed line(s): line 7: expected 3 or 4 fields, got 2"] * 3


def test_write_then_load_round_trip(tmp_path):
    domain = dom(("u1", "i1", 1.0), ("u2", "i2", 0.5), ("u3", "i3", 0.9999999),
                 ("u4", "i4", 1234567.0), ("u5", "i5", 0.1))
    path = tmp_path / "out.tsv"
    write_domain_file(str(path), domain)
    assert path.read_text().startswith("u1\ti1\t1\n")  # what `mdap synth` writes
    assert rows_of(load_domain(str(path))) == rows_of(domain)
    # 0.9999999 must not be rounded up past a threshold of 1
    ds = build_dataset(load_domain(str(path)), dom(("u1", "t1")), Rng(0), threshold=1.0)
    assert sum(ds.split_size("s", sp) for sp in SPLITS) == 2


def k_core_oracle(records, k):
    """Remove one under-connected user or item at a time until stable."""
    kept = list(records)
    while True:
        users, items = {}, {}
        for u, i, _ in kept:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        weak_user = next((u for u in sorted(users) if users[u] < k), None)
        if weak_user is not None:
            kept = [r for r in kept if r[0] != weak_user]
            continue
        weak_item = next((i for i in sorted(items) if items[i] < k), None)
        if weak_item is not None:
            kept = [r for r in kept if r[1] != weak_item]
            continue
        return kept


@pytest.mark.parametrize("k", [2, 3])
def test_k_core_matches_one_at_a_time_oracle(k):
    rng = np.random.default_rng(17)
    draws, distinct = [], []
    seen = set()
    for n in range(120):
        u, i = rng.integers(0, 14), rng.integers(0, 18)
        draws.append((f"u{u}", f"i{i}", float(n)))  # ratings tell records apart
        if (u, i) not in seen:
            seen.add((u, i))
            distinct.append(draws[-1])
    assert len(distinct) < len(draws)
    # duplicate records count towards the degree, as separate records
    for records in (distinct, draws):
        got = rows_of(k_core_filter(dom(*records), k))
        assert got == k_core_oracle(records, k)  # same records, same order
        users, items = {}, {}
        for u, i, _ in got:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        assert all(c >= k for c in users.values())
        assert all(c >= k for c in items.values())


def test_k_core_level_one_is_identity():
    domain = dom(("u1", "i1"), ("u2", "i2"))
    assert rows_of(k_core_filter(domain, 1)) == rows_of(domain)


def split_counts_oracle(n):
    """Largest-remainder apportionment at DEFAULT_RATIOS in exact arithmetic."""
    quotas = [Fraction(str(r)) * n for r in DEFAULT_RATIOS]
    base = [int(q) for q in quotas]
    remainders = [q - b for q, b in zip(quotas, base)]
    counts = list(base)
    order = sorted(range(3), key=lambda i: (-remainders[i], i))
    for i in order[:n - sum(base)]:
        counts[i] += 1
    return tuple(counts)


def test_split_counts_matches_exact_arithmetic_oracle():
    for n in range(0, 201):
        assert split_counts(n) == split_counts_oracle(n), n


def test_split_counts_known_values():
    assert split_counts(10) == (8, 1, 1)
    assert split_counts(6) == (5, 1, 0)
    assert split_counts(7) == (5, 1, 1)
    assert split_counts(1) == (1, 0, 0)
    assert all(split_counts(n)[0] >= 1 for n in range(1, 10_000))


def test_split_counts_rejects_negative():
    with pytest.raises(ParameterError):
        split_counts(-1)


def two_domain_records():
    records_s = dom(*[("ua", f"s{i}") for i in range(8)],
                    *[("ub", f"s{i}", 2.0) for i in range(4)],
                    ("uc", "s0", 0.5))
    records_t = dom(*[("ub", f"t{i}") for i in range(6)],
                    *[("ud", f"t{i}") for i in range(3)])
    return records_s, records_t


def test_build_dataset_user_union_and_item_order():
    records_s, records_t = two_domain_records()
    ds = build_dataset(records_s, records_t, Rng(0), threshold=1.0)
    assert list(ds.users) == ["ua", "ub", "ud"]  # uc falls below threshold
    assert list(ds.items["s"]) == sorted({i for _, i, r in rows_of(records_s) if r >= 1.0})
    assert list(ds.items["t"]) == sorted({i for _, i, _ in rows_of(records_t)})


def test_build_dataset_split_disjoint_and_conserving():
    records_s, records_t = two_domain_records()
    ds = build_dataset(records_s, records_t, Rng(0))
    for domain, total in (("s", 12), ("t", 9)):
        seen = set()
        count = 0
        for split in ("train", "valid", "test"):
            for u, i in split_pairs(ds, domain, split):
                assert (u, i) not in seen
                seen.add((u, i))
                count += 1
        assert count == total


def test_build_dataset_deterministic():
    records_s, records_t = two_domain_records()
    a = build_dataset(records_s, records_t, Rng(5))
    b = build_dataset(records_s, records_t, Rng(5))
    c = build_dataset(records_s, records_t, Rng(6))
    for key in KEYS:
        assert np.array_equal(split_pairs(a, *key), split_pairs(b, *key))
    assert any(not np.array_equal(split_pairs(a, *key), split_pairs(c, *key)) for key in KEYS)


def test_build_dataset_threshold_and_dedupe():
    records_s = dom(("u1", "s1", 0.4), ("u1", "s2", 5.0), ("u1", "s2", 5.0),
                    ("u1", "s3", 3.0))
    records_t = dom(("u1", "t1", 3.5))
    ds = build_dataset(records_s, records_t, Rng(0), threshold=3.0)
    assert list(ds.items["s"]) == ["s2", "s3"]
    total = sum(len(split_pairs(ds, "s", sp)) for sp in ("train", "valid", "test"))
    assert total == 2


def test_build_dataset_rejects_empty_domain():
    with pytest.raises(DataError, match="domain t has no interactions left at threshold 1.0"):
        build_dataset(dom(("u1", "s1")), dom(("u1", "t1", 0.1)), Rng(0), threshold=1.0)


def build_dataset_reference(records_s, records_t, rng, threshold):
    """Per-user split assignment with Python lists: build_dataset's oracle.

    Returns (users, items by domain, sorted pair lists by (domain, split)).
    """
    by_domain = {}
    for domain, records in (("s", records_s), ("t", records_t)):
        by_domain[domain] = {}
        for user, item, rating in rows_of(records):
            if rating >= threshold:
                by_domain[domain].setdefault(user, set()).add(item)
    users = sorted(set(by_domain["s"]) | set(by_domain["t"]))
    items = {d: sorted({i for its in by_domain[d].values() for i in its}) for d in ("s", "t")}
    pairs = {(d, sp): [] for d in ("s", "t") for sp in SPLITS}
    for domain in ("s", "t"):
        item_index = {i: idx for idx, i in enumerate(items[domain])}
        for u, user in enumerate(users):
            owned = by_domain[domain].get(user)
            if not owned:
                continue
            idx = sorted(item_index[i] for i in owned)
            n_train, n_valid, _ = split_counts(len(idx))
            shuffled = [idx[p] for p in rng.permutation(len(idx))]
            pairs[(domain, "train")] += [[u, i] for i in shuffled[:n_train]]
            pairs[(domain, "valid")] += [[u, i] for i in shuffled[n_train:n_train + n_valid]]
            pairs[(domain, "test")] += [[u, i] for i in shuffled[n_train + n_valid:]]
    return users, items, {key: sorted(val) for key, val in pairs.items()}


def awkward_records(seed):
    """Records with unpadded ids (lexicographic order differs from
    numeric), single-domain users, one-item users, duplicate records and
    users whose every rating falls below threshold 1.0."""
    rng = np.random.default_rng(seed)
    records = {"s": [], "t": []}
    for u in range(40):
        for domain, n_items in (("s", 25), ("t", 12)):
            if (domain == "s" and u % 5 == 1) or (domain == "t" and u % 5 == 2):
                continue  # single-domain users
            n = 1 if u % 7 == 3 else int(rng.integers(1, 15))
            for i in rng.integers(0, n_items, n):
                rating = 0.5 if u % 11 == 4 else float(rng.choice([0.5, 1.0, 3.0]))
                records[domain].append((f"u{u}", f"{domain}{i}", rating))
        if u % 3 == 0:
            records["s"].append(records["s"][-1])  # exact duplicate
    return dom(*records["s"]), dom(*records["t"])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_build_dataset_matches_per_user_reference(seed):
    ds = assert_matches_reference(*awkward_records(seed), seed)
    assert "u4" not in ds.users  # every rating below threshold


def many_user_records(seed):
    """Hundreds of users with 1 to 99 items each, most of them drawn from a
    few sizes so that many users share one; a third of the users are in
    one domain only."""
    rng = np.random.default_rng(seed)
    records = {"s": [], "t": []}
    for u in range(360):
        for domain, n_items, absent in (("s", 150, 1), ("t", 110, 2)):
            if u % 3 == absent:
                continue
            n = int(rng.choice([1, 2, 3, 9, 10, 11, 40, 99]) if u % 4 else rng.integers(1, 100))
            records[domain] += [(f"u{u}", f"{domain}{i}", 1.0)
                                for i in rng.choice(n_items, min(n, n_items), replace=False)]
    return dom(*records["s"]), dom(*records["t"])


@pytest.mark.parametrize("seed", [0, 1])
def test_build_dataset_matches_per_user_reference_at_scale(seed):
    ds = assert_matches_reference(*many_user_records(seed), seed)
    assert ds.n_users == 360
    for domain in ("s", "t"):
        sizes = sum(np.diff(ds.rows(domain, split).indptr) for split in SPLITS)
        assert (sizes == 0).sum() == 120 and sizes.max() == 99


def assert_matches_reference(records_s, records_t, seed):
    """build_dataset equals the per-user reference and leaves its Rng
    where the reference's per-user loop leaves it; returns the dataset."""
    rng, ref_rng = Rng(seed), Rng(seed)
    ds = build_dataset(records_s, records_t, rng, threshold=1.0)
    users, items, pairs = build_dataset_reference(records_s, records_t, ref_rng, 1.0)
    assert list(ds.users) == users
    assert {d: list(ds.items[d]) for d in ("s", "t")} == items
    for key, expect in pairs.items():
        assert split_pairs(ds, *key).tolist() == expect, key
    assert np.array_equal(rng.uniform(2, 3), ref_rng.uniform(2, 3))
    return ds


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_index_pairs_matches_unique_reference(seed):
    # ids in runs of one user, as split files hold them, and shuffled ones;
    # prefixes of each other, non-ASCII and one empty key
    rng = np.random.default_rng(seed)
    pool = np.array(["u1", "u10", "u2", "ü", "u", "b", "u1 ", "a" * 12, "z9", "é1"])
    id_pairs = {}
    for domain in ("s", "t"):
        for split in SPLITS:
            n = 0 if (domain, split) == ("t", "valid") else int(rng.integers(1, 60))
            users = np.sort(rng.choice(pool, n)) if split != "test" else rng.choice(pool, n)
            items = rng.choice(np.array([f"{domain}{i}" for i in range(15)]), n)
            id_pairs[(domain, split)] = np.stack([users, items], axis=1).reshape(-1, 2)
    users, items, indexed = index_pairs(id_pairs)

    def reference(keys, col):
        vocab, codes = np.unique(np.concatenate([id_pairs[key][:, col] for key in keys]),
                                 return_inverse=True)
        bounds = np.cumsum([len(id_pairs[key]) for key in keys])[:-1]
        return vocab.tolist(), dict(zip(keys, np.split(codes.reshape(-1), bounds)))

    ref_users, user_codes = reference(list(id_pairs), 0)
    assert users == ref_users
    for domain in ("s", "t"):
        keys = [key for key in id_pairs if key[0] == domain]
        ref_items, item_codes = reference(keys, 1)
        assert items[domain] == ref_items
        for key in keys:
            assert indexed[key].dtype == np.int64
            assert indexed[key].tolist() == np.stack([user_codes[key], item_codes[key]],
                                                     axis=1).tolist(), key


def test_sparse_batch_match_pairs():
    records_s, records_t = two_domain_records()
    ds = build_dataset(records_s, records_t, Rng(1))
    users = np.array([2, 0, 1])
    batch = sparse_batch(ds, users)
    rows = dense(batch)
    n_s = ds.n_items("s")
    expect = np.zeros((ds.n_users, n_s + ds.n_items("t")))
    for domain, offset in (("s", 0), ("t", n_s)):
        for u, i in split_pairs(ds, domain, "train"):
            expect[u, offset + i] = 1.0
    assert np.array_equal(rows, expect[users])
    # CSR form: one row per user, columns ascending
    assert batch.n_rows == 3 and batch.n_cols == expect.shape[1]
    assert np.array_equal(np.diff(batch.indptr), np.count_nonzero(expect[users], axis=1))
    for r in range(batch.n_rows):
        cols = batch.indices[batch.indptr[r]:batch.indptr[r + 1]]
        assert np.array_equal(cols, np.flatnonzero(expect[users[r]]))


def test_sparse_batch_concatenates_domains():
    records_s, records_t = two_domain_records()
    ds = build_dataset(records_s, records_t, Rng(1))
    batch = sparse_batch(ds, np.array([0, 2]))
    assert dense(batch).shape == (2, ds.n_items("s") + ds.n_items("t"))
    full = sparse_batch(ds, np.arange(ds.n_users))
    assert int(dense(full).sum()) == \
        len(split_pairs(ds, "s", "train")) + len(split_pairs(ds, "t", "train"))


@pytest.mark.parametrize("users, message", [
    ([0, 3], r"\[0, 3\)"),
    ([-1], r"\[0, 3\)"),
    ([1.7, 2.2], "must be integers"),
], ids=["index-past-end", "negative-index", "float-index"])
def test_sparse_batch_rejects_bad_users(users, message):
    records_s, records_t = two_domain_records()
    ds = build_dataset(records_s, records_t, Rng(1))
    assert ds.n_users == 3
    with pytest.raises(ParameterError, match=message):
        sparse_batch(ds, np.array(users))


def test_sparse_batch_of_no_users_is_empty():
    records_s, records_t = two_domain_records()
    ds = build_dataset(records_s, records_t, Rng(1))
    # np.asarray([]) is float64: an empty list is still no users, as in CsrRows.take
    for users in ([], np.array([], dtype=np.int64)):
        batch = sparse_batch(ds, users)
        assert batch.indptr.tolist() == [0] and len(batch.indices) == 0
        assert batch.n_cols == ds.n_items("s") + ds.n_items("t")


def test_view_blocks_partition():
    blocks = view_blocks(10, 4)
    assert [b.tolist() for b in blocks] == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
    blocks = view_blocks(30, 4)
    assert [len(b) for b in blocks] == [8, 8, 7, 7]
    assert sorted(i for b in blocks for i in b.tolist()) == list(range(30))


SPEC_INT_FIELDS = ("n_users", "n_items_s", "n_items_t", "k_true")


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(4.0), True, np.bool_(False), "4", None],
                         ids=["float", "integral-float", "numpy-float", "bool", "numpy-bool",
                              "str", "none"])
@pytest.mark.parametrize("name", SPEC_INT_FIELDS)
def test_synthetic_spec_rejects_non_integer_fields(name, value):
    with pytest.raises(ParameterError, match=name):
        SyntheticSpec(**{name: value})


@pytest.mark.parametrize("name", SPEC_INT_FIELDS)
def test_synthetic_spec_range_of_integer_fields(name):
    with pytest.raises(ParameterError, match=name):
        SyntheticSpec(**{name: 0})
    spec = SyntheticSpec(**{name: np.int64(4)})
    assert type(getattr(spec, name)) is int and getattr(spec, name) == 4


@pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, 1j],
                         ids=["bool", "numpy-bool", "str", "none", "complex"])
@pytest.mark.parametrize("name", ["overlap", "noise"])
def test_synthetic_spec_rejects_non_real_fields(name, value):
    with pytest.raises(ParameterError, match=f"{name} must be a real number"):
        SyntheticSpec(**{name: value})


@pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("name", ["overlap", "noise"])
def test_synthetic_spec_range_of_real_fields(name, value):
    with pytest.raises(ParameterError, match=rf"{name} must be in \[0, 1\]"):
        SyntheticSpec(**{name: value})


def test_synthetic_spec_rejects_empty_blocks():
    with pytest.raises(ParameterError):
        SyntheticSpec(n_users=10, n_items_s=3, n_items_t=8, k_true=4)


def test_synthetic_noiseless_interactions_stay_in_block():
    spec = SyntheticSpec(n_users=40, n_items_s=20, n_items_t=12,
                         k_true=4, overlap=1.0, noise=0.0)
    records_s, records_t, planted = synthetic_records(spec, Rng(2))
    blocks_s = view_blocks(20, 4)
    blocks_t = view_blocks(12, 4)
    users_s = {u for u, _, _ in rows_of(records_s)}
    users_t = {u for u, _, _ in rows_of(records_t)}
    assert users_s == users_t == set(planted)
    for records, blocks, prefix in ((records_s, blocks_s, "s"), (records_t, blocks_t, "t")):
        for user, item, rating in rows_of(records):
            idx = int(item[1:])
            assert idx in set(blocks[planted[user]].tolist())
            assert item.startswith(prefix) and rating == 1.0


def test_synthetic_views_rotate_over_users():
    spec = SyntheticSpec(n_users=9, n_items_s=8, n_items_t=8, k_true=4,
                         overlap=1.0, noise=0.0)
    _, _, planted = synthetic_records(spec, Rng(0))
    ordered = [planted[u] for u in sorted(planted)]
    assert ordered == [i % 4 for i in range(9)]


def test_synthetic_zero_overlap_separates_users():
    spec = SyntheticSpec(n_users=30, n_items_s=12, n_items_t=12,
                         k_true=3, overlap=0.0, noise=0.0)
    records_s, records_t, _ = synthetic_records(spec, Rng(4))
    assert not (set(records_s[0][:, 0].tolist()) & set(records_t[0][:, 0].tolist()))


def test_synthetic_off_block_rate_near_noise():
    spec = SyntheticSpec(n_users=400, n_items_s=40, n_items_t=30,
                         k_true=4, overlap=1.0, noise=0.05)
    records_s, records_t, planted = synthetic_records(spec, Rng(9))
    off = total_off_slots = 0
    for records, n_items in ((records_s, 40), (records_t, 30)):
        blocks = view_blocks(n_items, 4)
        block_of = {}
        for view, block in enumerate(blocks):
            for i in block.tolist():
                block_of[i] = view
        in_block_count = {u: len(blocks[planted[u]]) for u in planted}
        total_off_slots += sum(n_items - in_block_count[u] for u in planted)
        off += sum(1 for user, item, _ in rows_of(records)
                   if block_of[int(item[1:])] != planted[user])
    rate = off / total_off_slots
    assert 0.03 < rate < 0.07


def test_synthetic_deterministic():
    spec = SyntheticSpec(n_users=25, n_items_s=10, n_items_t=10, k_true=2)
    a = synthetic_records(spec, Rng(13))
    b = synthetic_records(spec, Rng(13))
    assert rows_of(a[0]) == rows_of(b[0]) and rows_of(a[1]) == rows_of(b[1])
    assert a[2] == b[2]


def test_synthetic_dataset_builds_consistent_dataset():
    spec = SyntheticSpec(n_users=50, n_items_s=16, n_items_t=12, k_true=4,
                         overlap=0.5, noise=0.05)
    ds, planted = synthetic_dataset(spec, Rng(8))
    assert ds.n_users <= 50
    assert set(planted) >= set(ds.users)
    for domain in ("s", "t"):
        for split in ("train", "valid", "test"):
            pairs = split_pairs(ds, domain, split)
            if len(pairs):
                assert pairs[:, 0].max() < ds.n_users
                assert pairs[:, 1].max() < ds.n_items(domain)


@pytest.mark.parametrize("bad, message", [
    ({("s", "valid"): [[0, 0]]}, r"pair \(0, 0\) appears"),
    ({("s", "train"): [[0, 0], [0, 0]]}, r"pair \(0, 0\) appears"),
    ({("t", "test"): [[1, 0]]}, "user index out of range"),
    ({("t", "valid"): [[0, 1]]}, "item index out of range"),
], ids=["cross-split", "within-split", "user-range", "item-range"])
def test_dataset_validates_cross_split_overlap(bad, message):
    pairs = {(d, sp): np.zeros((0, 2), dtype=np.int64)
             for d in ("s", "t") for sp in ("train", "valid", "test")}
    pairs[("s", "train")] = np.array([[0, 0]], dtype=np.int64)
    pairs[("t", "train")] = np.array([[0, 0]], dtype=np.int64)
    pairs.update({key: np.array(val, dtype=np.int64) for key, val in bad.items()})
    with pytest.raises(DataError, match=message):
        InteractionDataset(["u1"], ["s1"], ["t1"], pairs)


@pytest.mark.parametrize("given, message", [
    ({"pairs": {("s", "val"): [[0, 0]]}}, r"unknown \(domain, split\) keys \[\('s', 'val'\)\]"),
    ({"pairs": {("s", "train"): [[0, 0.5]]}},
     r"\('s', 'train'\) pairs must be an \(n, 2\) integer array, got dtype float64"),
    ({"pairs": {("t", "test"): np.array([[True, False]])}}, "integer array, got dtype bool"),
    ({"pairs": {("s", "train"): np.array([0, 0, 0])}}, r"got dtype int64 and shape \(3,\)"),
    ({"pairs": {("s", "train"): np.array([[0, 0, 0]])}}, r"got dtype int64 and shape \(1, 3\)"),
    ({"users": ["u2", "u1"]}, "user ids must be strictly ascending"),
    ({"users": ["u1", "u1"]}, "user ids must be strictly ascending"),
    # items s2, s1 would reload from split files with their indices swapped
    ({"items_s": ["s2", "s1"]}, "item ids must be strictly ascending"),
    ({"items_t": ["t1", "t1"]}, "item ids must be strictly ascending"),
], ids=["unknown-key", "float", "bool", "flat", "three-columns", "users-descending",
        "users-repeated", "items-descending", "items-repeated"])
def test_dataset_rejects_malformed_input(given, message):
    with pytest.raises(DataError, match=message):
        InteractionDataset(**{"users": ["u1"], "items_s": ["s1"], "items_t": ["t1"], "pairs": {},
                              **given})


@pytest.mark.parametrize("given, message", [
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"k_core": "abc"}, "k_core must be an integer, got 'abc'"),
    ({"k_core": 2.7}, "k_core must be an integer, got 2.7"),
    ({"threshold": "abc"}, "threshold must be a real number, got 'abc'"),
    ({"threshold": None}, "threshold must be a real number, got None"),
], ids=["seed-string", "seed-bool", "seed-negative", "k_core-string", "k_core-float",
        "threshold-string", "threshold-none"])
def test_dataset_rejects_metadata_its_manifest_could_not_hold(given, message):
    # each was stored as given (k_core=2.7 as 2), and write_prepared then
    # failed or wrote a manifest.json that load_prepared refuses
    with pytest.raises(ParameterError, match=message):
        InteractionDataset(["u1"], ["s1"], ["t1"], {}, **given)


def test_dataset_accepts_empty_pairs_of_any_dtype_and_unsigned_indices():
    # [] arrives as float64
    pairs = {("s", "train"): [], ("t", "valid"): np.zeros((0, 3), dtype=bool),
             ("t", "test"): np.empty((2, 0), dtype=np.uint8),
             ("s", "test"): np.array([[0, 0]], dtype=np.uint32)}
    ds = InteractionDataset(["u1"], ["s1"], ["t1"], pairs)
    assert all(split_pairs(ds, *key).dtype == np.int64 for key in KEYS)
    assert [ds.split_size(d, sp) for d in ("s", "t") for sp in SPLITS] == [0, 0, 1, 0, 0, 0]


def test_dataset_sorts_only_unsorted_pairs(fixture_dataset, monkeypatch):
    ds = fixture_dataset
    sort, kinds = np.sort, []
    monkeypatch.setattr(np, "sort", lambda a, **kw: kinds.append(kw.get("kind")) or sort(a, **kw))
    rng = np.random.default_rng(0)
    pairs = {key: split_pairs(ds, *key) for key in KEYS}
    shuffled = {key: arr[rng.permutation(len(arr))] for key, arr in pairs.items()}
    # users in order, but two items of one user swapped
    swapped = shuffled[("s", "train")] = pairs[("s", "train")].copy()
    j = np.flatnonzero(swapped[1:, 0] == swapped[:-1, 0])[0]
    swapped[[j, j + 1]] = swapped[[j + 1, j]]
    for given, sorts in ((pairs, 0), (shuffled, 6)):
        kinds.clear()
        again = InteractionDataset(ds.users, ds.items["s"], ds.items["t"], given)
        # unstable sorts; the per-domain merge of the three splits is stable
        assert kinds.count(None) == sorts
        for key in KEYS:
            got, want = again.rows(*key), ds.rows(*key)
            assert got.indices.dtype == np.int64
            assert np.array_equal(got.indices, want.indices), key
            assert np.array_equal(got.indptr, want.indptr), key
            assert not np.shares_memory(got.indices, given[key])


def test_dataset_keeps_each_split_once(fixture_dataset):
    ds = fixture_dataset
    pairs = {key: split_pairs(ds, *key) for key in KEYS}
    n_pairs = sum(len(arr) for arr in pairs.values())
    n_ids = ds.n_users + ds.n_items("s") + ds.n_items("t")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = InteractionDataset(ds.users, ds.items["s"], ds.items["t"], pairs)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the rows' indices and indptr, the id tuples and a little for the objects
    bound = 8 * n_pairs + 8 * (ds.n_users + 1) * len(KEYS) + 8 * n_ids + 16 * 1024
    assert retained <= bound, (retained, n_pairs)
    assert sum(again.split_size(*key) for key in KEYS) == n_pairs


def test_rows_match_bucket_loop(fixture_dataset):
    ds = fixture_dataset
    for domain in ("s", "t"):
        for split in SPLITS:
            buckets = [[] for _ in range(ds.n_users)]
            for u, i in split_pairs(ds, domain, split):
                buckets[int(u)].append(int(i))
            got = ds.rows(domain, split)
            assert got.n_rows == ds.n_users and got.n_cols == ds.n_items(domain)
            assert [got.indices[a:b].tolist()
                    for a, b in zip(got.indptr[:-1], got.indptr[1:])] == buckets
            assert got.indptr.dtype == np.int64 and got.indices.dtype == np.int64
    # single-domain users own nothing in the other domain
    assert (np.diff(ds.rows("s", "train").indptr) == 0).any()
    assert (np.diff(ds.rows("t", "train").indptr) == 0).any()


def test_rows_are_read_only(fixture_dataset):
    ds = fixture_dataset
    for domain in ("s", "t"):
        for split in SPLITS:
            rows = ds.rows(domain, split)
            for arr in (rows.indptr, rows.indices):
                with pytest.raises(ValueError):
                    arr[...] = 0
