import logging
from fractions import Fraction

import numpy as np
import pytest

from mdap.data import (InteractionDataset, InteractionRecord, SyntheticSpec,
                       batch_rows, build_dataset, generate_synthetic,
                       k_core_filter, load_domain, split_counts,
                       synthetic_records, view_blocks, write_domain_file)
from mdap.errors import DataError, ParameterError, ParseError
from mdap.numerics import Rng


def rec(u, i, r=1.0, t=None):
    return InteractionRecord(u, i, r, t)


def test_record_rejects_empty_ids():
    with pytest.raises(DataError):
        InteractionRecord("", "i1", 1.0)
    with pytest.raises(DataError):
        InteractionRecord("u1", "", 1.0)


def test_load_domain_parses_comments_blanks_timestamps(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("# header\n"
                    "u1\ti1\t4.5\t1609459200\n"
                    "\n"
                    "u2\ti2\t3\n"
                    "   \n"
                    "u3\ti1\t1.0\t\n")
    records = load_domain(str(path))
    assert len(records) == 3
    assert records[0] == InteractionRecord("u1", "i1", 4.5, 1609459200)
    assert records[1].timestamp is None
    assert records[2].timestamp is None


def test_load_domain_strict_reports_line_numbers(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("u1\ti1\t1.0\nhalf a line\nu2\ti2\tNaN\nu3\ti3\tx\n")
    with pytest.raises(ParseError) as err:
        load_domain(str(path))
    msg = str(err.value)
    assert "line 2" in msg and "line 3" in msg and "line 4" in msg


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
        records = load_domain(str(path), strict=False)
    assert [r.user_id for r in records] == ["u1", "u2"]
    assert any("skipped" in m for m in caplog.messages)


def test_write_then_load_round_trip(tmp_path):
    records = [rec("u1", "i1", 1.0, 7), rec("u2", "i2", 0.5)]
    path = tmp_path / "out.tsv"
    write_domain_file(str(path), records)
    assert load_domain(str(path)) == records


def k_core_oracle(records, k):
    """Remove one under-connected user or item at a time until stable."""
    kept = list(records)
    while True:
        users, items = {}, {}
        for r in kept:
            users[r.user_id] = users.get(r.user_id, 0) + 1
            items[r.item_id] = items.get(r.item_id, 0) + 1
        weak_user = next((u for u in sorted(users) if users[u] < k), None)
        if weak_user is not None:
            kept = [r for r in kept if r.user_id != weak_user]
            continue
        weak_item = next((i for i in sorted(items) if items[i] < k), None)
        if weak_item is not None:
            kept = [r for r in kept if r.item_id != weak_item]
            continue
        return kept


@pytest.mark.parametrize("k", [2, 3])
def test_k_core_matches_one_at_a_time_oracle(k):
    rng = np.random.default_rng(17)
    records = []
    seen = set()
    for _ in range(120):
        u, i = rng.integers(0, 14), rng.integers(0, 18)
        if (u, i) not in seen:
            seen.add((u, i))
            records.append(rec(f"u{u}", f"i{i}"))
    got = k_core_filter(records, k)
    expect = k_core_oracle(records, k)
    assert sorted((r.user_id, r.item_id) for r in got) == \
        sorted((r.user_id, r.item_id) for r in expect)
    # every survivor meets the degree bound
    users, items = {}, {}
    for r in got:
        users[r.user_id] = users.get(r.user_id, 0) + 1
        items[r.item_id] = items.get(r.item_id, 0) + 1
    assert all(c >= k for c in users.values())
    assert all(c >= k for c in items.values())


def test_k_core_level_one_is_identity():
    records = [rec("u1", "i1"), rec("u2", "i2")]
    assert k_core_filter(records, 1) == records


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
    records_s = [rec("ua", f"s{i}") for i in range(8)] + \
                [rec("ub", f"s{i}", 2.0) for i in range(4)] + \
                [rec("uc", "s0", 0.5)]
    records_t = [rec("ub", f"t{i}") for i in range(6)] + \
                [rec("ud", f"t{i}") for i in range(3)]
    return records_s, records_t


def test_build_dataset_user_union_and_item_order():
    records_s, records_t = two_domain_records()
    ds = build_dataset(records_s, records_t, Rng(0), threshold=1.0)
    assert list(ds.users) == ["ua", "ub", "ud"]  # uc falls below threshold
    assert list(ds.items["s"]) == sorted({r.item_id for r in records_s if r.rating >= 1.0})
    assert list(ds.items["t"]) == sorted({r.item_id for r in records_t})


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
    records_s = [rec("u1", "s1", 0.4), rec("u1", "s2", 5.0), rec("u1", "s2", 5.0),
                 rec("u1", "s3", 3.0)]
    records_t = [rec("u1", "t1", 3.5)]
    ds = build_dataset(records_s, records_t, Rng(0), threshold=3.0)
    assert list(ds.items["s"]) == ["s2", "s3"]
    total = sum(len(ds.pairs[("s", sp)]) for sp in ("train", "valid", "test"))
    assert total == 2


def test_build_dataset_rejects_empty_domain():
    with pytest.raises(DataError):
        build_dataset([rec("u1", "s1")], [rec("u1", "t1", 0.1)], Rng(0), threshold=1.0)


def test_batch_rows_match_pairs():
    records_s, records_t = two_domain_records()
    ds = build_dataset(records_s, records_t, Rng(1))
    users = np.array([2, 0, 1])
    rows = batch_rows(ds, users, "train")
    n_s = ds.n_items("s")
    expect = np.zeros((ds.n_users, n_s + ds.n_items("t")))
    for domain, offset in (("s", 0), ("t", n_s)):
        for u, i in ds.pairs[(domain, "train")]:
            expect[u, offset + i] = 1.0
    assert np.array_equal(rows, expect[users])


def test_batch_rows_concatenates_domains():
    records_s, records_t = two_domain_records()
    ds = build_dataset(records_s, records_t, Rng(1))
    rows = batch_rows(ds, np.array([0, 2]), "train")
    assert rows.shape == (2, ds.n_items("s") + ds.n_items("t"))
    full = batch_rows(ds, np.arange(ds.n_users), "train")
    assert int(full.sum()) == len(ds.pairs[("s", "train")]) + len(ds.pairs[("t", "train")])


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
    users_s = {r.user_id for r in records_s}
    users_t = {r.user_id for r in records_t}
    assert users_s == users_t == set(planted)
    for records, blocks, prefix in ((records_s, blocks_s, "s"), (records_t, blocks_t, "t")):
        for r in records:
            idx = int(r.item_id[1:])
            assert idx in set(blocks[planted[r.user_id]].tolist())
            assert r.item_id.startswith(prefix)


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
    assert not ({r.user_id for r in records_s} & {r.user_id for r in records_t})


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
        off += sum(1 for r in records
                   if block_of[int(r.item_id[1:])] != planted[r.user_id])
    rate = off / total_off_slots
    assert 0.03 < rate < 0.07


def test_synthetic_deterministic():
    spec = SyntheticSpec(n_users=25, n_items_s=10, n_items_t=10, k_true=2)
    a = synthetic_records(spec, Rng(13))
    b = synthetic_records(spec, Rng(13))
    assert a == b


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


def test_dataset_validates_cross_split_overlap():
    pairs = {(d, sp): np.zeros((0, 2), dtype=np.int64)
             for d in ("s", "t") for sp in ("train", "valid", "test")}
    pairs[("s", "train")] = np.array([[0, 0]], dtype=np.int64)
    pairs[("s", "valid")] = np.array([[0, 0]], dtype=np.int64)
    pairs[("t", "train")] = np.array([[0, 0]], dtype=np.int64)
    with pytest.raises(DataError):
        InteractionDataset(["u1"], ["s1"], ["t1"], pairs)
