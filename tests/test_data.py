import logging
from fractions import Fraction

import numpy as np
import pytest

from mdap.data import (DEFAULT_RATIOS, SPLITS, InteractionDataset, SyntheticSpec,
                       build_dataset, generate_synthetic, k_core_filter, load_domain,
                       sparse_batch, split_counts, synthetic_records, view_blocks,
                       write_domain_file)
from mdap.errors import DataError, ParameterError, ParseError
from mdap.numerics import Rng
from sparse_rows import dense


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


def split_counts_oracle(n, ratios):
    """Largest-remainder apportionment in exact arithmetic."""
    quotas = [Fraction(str(r)) * n for r in ratios]
    base = [int(q) for q in quotas]
    remainders = [q - b for q, b in zip(quotas, base)]
    counts = list(base)
    order = sorted(range(3), key=lambda i: (-remainders[i], i))
    for i in order[:n - sum(base)]:
        counts[i] += 1
    if n > 0 and counts[0] == 0:
        donor = 1 if counts[1] >= counts[2] else 2
        counts[donor] -= 1
        counts[0] += 1
    return tuple(counts)


def test_split_counts_matches_exact_arithmetic_oracle():
    for ratios in [(0.8, 0.1, 0.1), (0.7, 0.2, 0.1), (0.05, 0.9, 0.05)]:
        for n in range(0, 201):
            assert split_counts(n, ratios) == split_counts_oracle(n, ratios), (n, ratios)


def test_split_counts_known_values():
    assert split_counts(10) == (8, 1, 1)
    assert split_counts(6) == (5, 1, 0)
    assert split_counts(7) == (5, 1, 1)
    assert split_counts(1) == (1, 0, 0)
    assert all(split_counts(n)[0] >= 1 for n in range(1, 40))


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
            for u, i in ds.pairs[(domain, split)]:
                assert (u, i) not in seen
                seen.add((u, i))
                count += 1
        assert count == total


def test_build_dataset_deterministic():
    records_s, records_t = two_domain_records()
    a = build_dataset(records_s, records_t, Rng(5))
    b = build_dataset(records_s, records_t, Rng(5))
    c = build_dataset(records_s, records_t, Rng(6))
    for key in a.pairs:
        assert np.array_equal(a.pairs[key], b.pairs[key])
    assert any(not np.array_equal(a.pairs[key], c.pairs[key]) for key in a.pairs)


def test_build_dataset_threshold_and_dedupe():
    records_s = dom(("u1", "s1", 0.4), ("u1", "s2", 5.0), ("u1", "s2", 5.0),
                    ("u1", "s3", 3.0))
    records_t = dom(("u1", "t1", 3.5))
    ds = build_dataset(records_s, records_t, Rng(0), threshold=3.0)
    assert list(ds.items["s"]) == ["s2", "s3"]
    total = sum(len(ds.pairs[("s", sp)]) for sp in ("train", "valid", "test"))
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
            n_train, n_valid, _ = split_counts(len(idx), DEFAULT_RATIOS)
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
    records_s, records_t = awkward_records(seed)
    ds = build_dataset(records_s, records_t, Rng(seed), threshold=1.0)
    users, items, pairs = build_dataset_reference(records_s, records_t, Rng(seed), 1.0)
    assert list(ds.users) == users
    assert "u4" not in users  # every rating below threshold
    assert {d: list(ds.items[d]) for d in ("s", "t")} == items
    for key, expect in pairs.items():
        assert ds.pairs[key].tolist() == expect, key


def test_sparse_batch_match_pairs():
    records_s, records_t = two_domain_records()
    ds = build_dataset(records_s, records_t, Rng(1))
    users = np.array([2, 0, 1])
    batch = sparse_batch(ds, users)
    rows = dense(batch)
    n_s = ds.n_items("s")
    expect = np.zeros((ds.n_users, n_s + ds.n_items("t")))
    for domain, offset in (("s", 0), ("t", n_s)):
        for u, i in ds.pairs[(domain, "train")]:
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
        len(ds.pairs[("s", "train")]) + len(ds.pairs[("t", "train")])


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


def test_view_blocks_partition():
    blocks = view_blocks(10, 4)
    assert [b.tolist() for b in blocks] == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
    blocks = view_blocks(30, 4)
    assert [len(b) for b in blocks] == [8, 8, 7, 7]
    assert sorted(i for b in blocks for i in b.tolist()) == list(range(30))


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


def test_generate_synthetic_builds_consistent_dataset():
    spec = SyntheticSpec(n_users=50, n_items_s=16, n_items_t=12, k_true=4,
                         overlap=0.5, noise=0.05)
    ds, planted = generate_synthetic(spec, Rng(8))
    assert ds.n_users <= 50
    assert set(planted) >= set(ds.users)
    for domain in ("s", "t"):
        for split in ("train", "valid", "test"):
            pairs = ds.pairs[(domain, split)]
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


def test_rows_match_bucket_loop(fixture_dataset):
    ds = fixture_dataset
    for domain in ("s", "t"):
        for split in SPLITS:
            buckets = [[] for _ in range(ds.n_users)]
            for u, i in ds.pairs[(domain, split)]:
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
            assert np.shares_memory(rows.indptr, ds.offsets[(domain, split)])
            assert np.shares_memory(rows.indices, ds.pairs[(domain, split)])
