"""Benchmark input generator: two planted-structure domain TSV files.

The shape follows the program's synthetic generator (users split into
both-domain, s-only and t-only groups; each user favours one item block
per domain; off-block interactions appear at the noise rate), but the
code and the random stream live here, so the same seed and spec give
byte-identical files on every commit of the program.
"""

import hashlib
import zlib

import numpy as np

DOMAINS = ("s", "t")
CHUNK_USERS = 512  # users drawn per block of uniforms; bounds memory to ~20 MB


def block_of_items(n_items: int, k_true: int) -> np.ndarray:
    """Planted block index of every item: k_true contiguous blocks whose
    sizes differ by at most one, earlier blocks taking the extra items."""
    base, extra = divmod(n_items, k_true)
    sizes = [base + (1 if b < extra else 0) for b in range(k_true)]
    return np.repeat(np.arange(k_true), sizes)


def write_inputs(spec: dict, seed: int, stream: str, out_dir: str) -> dict:
    """Write domain_s.tsv and domain_t.tsv for one spec and seed.

    spec holds n_users, n_items_s, n_items_t, k_true, overlap, noise.
    stream names the workload so that two workloads with one seed draw
    different numbers. Returns the file paths and their digest.
    """
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, zlib.crc32(stream.encode("utf-8"))])))
    n_users = spec["n_users"]
    width = max(4, len(str(n_users - 1)))
    user_ids = np.array([f"u{idx:0{width}d}" for idx in range(n_users)])
    planted = np.arange(n_users) % spec["k_true"]
    n_both = int(round(spec["overlap"] * n_users))
    rest = np.arange(n_users) - n_both
    in_domain = {"s": (rest < 0) | (rest % 2 == 0), "t": (rest < 0) | (rest % 2 == 1)}

    paths = {}
    digest = hashlib.sha256()
    for domain in DOMAINS:
        n_items = spec[f"n_items_{domain}"]
        item_ids = np.array([f"{domain}{idx:04d}" for idx in range(n_items)])
        blocks = block_of_items(n_items, spec["k_true"])
        members = np.nonzero(in_domain[domain])[0]
        lines = []
        for start in range(0, members.size, CHUNK_USERS):
            users = members[start:start + CHUNK_USERS]
            on_block = blocks[None, :] == planted[users][:, None]
            p = np.where(on_block, 1.0 - spec["noise"], spec["noise"])
            rows, cols = np.nonzero(rng.random((users.size, n_items)) < p)
            lines.extend(f"{u}\t{i}\t1\n" for u, i in zip(user_ids[users[rows]], item_ids[cols]))
        text = "".join(lines).encode("utf-8")
        path = f"{out_dir}/domain_{domain}.tsv"
        with open(path, "wb") as fh:
            fh.write(text)
        digest.update(text)
        paths[domain] = path
    return {"paths": paths, "sha256": digest.hexdigest()}
