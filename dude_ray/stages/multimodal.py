"""Multimodal column plumbing — media payloads as opaque ``binary``
columns with typed metadata, decode/feature stages as task stages.

No image/audio codecs exist in this container, so the *decode kernel*
is a clearly marked deterministic stub (`_fake_decode`); everything
around it — schema, batch sizing for wide binary rows, stage
signature, output layout — is the real Ray plumbing and is tested.
A real deployment replaces ``_fake_decode`` with PIL/ffmpeg calls in
``MediaDecoder.__call__``; nothing else changes.  The seam's exact
input→output contract is locked by golden-bytes tests
(tests/test_multimodal_seam.py) so a codec drop-in is verified by
diff, not by re-reading this module.

pip install attempts for pillow/ffmpeg: failed 2026-08-15, 2026-08-16,
2026-08-17 (rounds 2-4) and again 2026-08-19 (round 5) — "No matching
distribution found" (the container has no package index/network).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..sources.corpus import media_payload

MEDIA_SCHEMA = pa.schema([
    ("media_ref", pa.string()),
    ("payload", pa.binary()),
    ("media_type", pa.string()),
])


def build_media_table(corpus_dir: str):
    """Materialize the media payload table from the corpus's media_refs
    (deterministic fake bytes — see sources.corpus.media_payload).
    Wide binary rows → small batch_size so batch × parallel tasks stays in
    worker heap."""
    from dude_ray.io import read_parquet_clean

    refs = read_parquet_clean(f"{corpus_dir}/web", columns=["media_refs"])

    def explode(batch: pa.Table) -> pa.Table:
        flat: list[str] = []
        for lst in batch["media_refs"].to_pylist():
            flat.extend(lst)
        return pa.table({
            "media_ref": pa.array(flat, type=pa.string()),
            "payload": pa.array([media_payload(r) for r in flat], type=pa.binary()),
            "media_type": pa.array(["image/png"] * len(flat), type=pa.string()),
        })

    return refs.map_batches(explode, batch_format="pyarrow", batch_size=512)


def _fake_decode(payload: bytes) -> dict:
    """STUB decode — deterministic pseudo-metadata in place of a real
    codec (no PIL/ffmpeg in this container).  Raises on empty payload
    like a real decoder would on a truncated file."""
    if not payload:
        raise ValueError("empty media payload")
    d = hashlib.blake2b(payload, digest_size=16).digest()
    return {
        "width": 64 + d[0] * 8,
        "height": 64 + d[1] * 8,
        "n_frames": 1 + d[2] % 4,
        "feature": [b / 255.0 for b in d[4:12]],
    }


class MediaDecoder:
    """Decode/feature stage, passed to ``map_batches`` as an instance
    (a task stage): small batches of wide binary rows per call.  A
    codec that is costly to load would make this a stateful stage."""

    def __init__(self, target_size: int = 64):
        self.target_size = target_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, frames, feats, ok = [], [], [], [], []
        for payload in batch["payload"].to_pylist():
            try:
                meta = _fake_decode(payload)
                widths.append(meta["width"])
                heights.append(meta["height"])
                frames.append(meta["n_frames"])
                feats.append(meta["feature"])
                ok.append("ok")
            except ValueError:
                widths.append(0)
                heights.append(0)
                frames.append(0)
                feats.append([])
                ok.append("decode_error")
        return pa.table({
            "media_ref": batch["media_ref"],
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "n_frames": pa.array(frames, type=pa.int32()),
            "feature": pa.array(feats, type=pa.list_(pa.float64())),
            "decode_status": pa.array(ok, type=pa.string()),
        })


def run_media_decode(sf_dir: str):
    """corpus media_refs → payload table → decode stage."""
    from ..sources.corpus import ensure_corpus

    corpus_dir = ensure_corpus(sf_dir)
    media = build_media_table(corpus_dir)
    return media.map_batches(MediaDecoder(), batch_format="pyarrow",
                             batch_size=256)


def _have_pil() -> bool:
    import importlib.util

    return importlib.util.find_spec("PIL") is not None


class MediaResizer:
    """Resize stage (an instance, so a task stage): consumes decode
    output plus the raw payload, emits a resized payload and the new
    dimensions.  With PIL importable the kernel would be
    ``Image.open(...).resize(...)``; in this container (no codecs) the kernel is a
    deterministic stub whose OUTPUT SIZE scales like a real thumbnail
    (target_w × target_h × 3 bytes) so the batch-size/memory behavior
    downstream is realistic."""

    def __init__(self, target_w: int = 32, target_h: int = 32):
        self.target_w = target_w
        self.target_h = target_h
        self.real = _have_pil()  # a real impl builds its PIL pipeline here

    def _resize(self, payload: bytes) -> bytes:
        if not payload:
            return b""
        n = self.target_w * self.target_h * 3
        seed = hashlib.blake2b(payload, digest_size=32).digest()
        reps = n // len(seed) + 1
        return (seed * reps)[:n]

    def __call__(self, batch: pa.Table) -> pa.Table:
        thumbs = [self._resize(p) for p in batch["payload"].to_pylist()]
        return pa.table({
            "media_ref": batch["media_ref"],
            "width": pa.array([self.target_w] * batch.num_rows, type=pa.int32()),
            "height": pa.array([self.target_h] * batch.num_rows, type=pa.int32()),
            "thumb": pa.array(thumbs, type=pa.binary()),
        })


class FrameSampler:
    """Frame-sampling stage (flat_map shape — output rows >
    input rows): every ``every_n``-th frame of each media row becomes
    its own (media_ref, frame_index, frame) row.  A real impl seeks with
    ffmpeg per sampled index; the stub derives deterministic frame bytes
    from (payload, index).  Small input batches keep the widened output
    bounded in worker heap."""

    def __init__(self, every_n: int = 2):
        self.every_n = every_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, idxs, frames = [], [], []
        for ref, payload, n_frames in zip(batch["media_ref"].to_pylist(),
                                          batch["payload"].to_pylist(),
                                          batch["n_frames"].to_pylist()):
            for i in range(0, int(n_frames), self.every_n):
                refs.append(ref)
                idxs.append(i)
                frames.append(hashlib.blake2b(
                    (payload or b"") + i.to_bytes(4, "big"),
                    digest_size=32).digest())
        return pa.table({
            "media_ref": pa.array(refs, type=pa.string()),
            "frame_index": pa.array(idxs, type=pa.int32()),
            "frame": pa.array(frames, type=pa.binary()),
        })


def run_media_frames(sf_dir: str, every_n: int = 2):
    """Full multimodal chain: payload table → decode (metadata) →
    frame sample.  The decode output is re-joined with the payload
    column inside one stage (carry-through, no shuffle) so the sampler
    sees (payload, n_frames) together."""
    from ..sources.corpus import ensure_corpus

    corpus_dir = ensure_corpus(sf_dir)
    media = build_media_table(corpus_dir)

    decode = MediaDecoder()

    def decode_carry(batch: pa.Table) -> pa.Table:
        return decode(batch).append_column("payload", batch["payload"])

    decoded = media.map_batches(decode_carry, batch_format="pyarrow",
                                batch_size=256)
    return decoded.map_batches(FrameSampler(every_n), batch_format="pyarrow",
                               batch_size=128)


def run_media_thumbs(sf_dir: str, target: int = 32):
    """payload table → resize stage."""
    from ..sources.corpus import ensure_corpus

    corpus_dir = ensure_corpus(sf_dir)
    media = build_media_table(corpus_dir)
    return media.map_batches(MediaResizer(target, target),
                             batch_format="pyarrow", batch_size=256)


class AudioChunker:
    """Audio windowing stage (flat_map shape): treat the
    binary payload as a PCM-like sample stream and emit fixed-length
    windows with hop, the framing every audio feature extractor
    (log-mel, wav2vec) runs on.  The byte→sample interpretation is the
    honest stub here (no audio codecs in this container — payload bytes
    ARE the samples); window arithmetic, flat_map row fan-out, batch
    sizing for wide rows, and per-window feature rows are the real
    plumbing a codec drops into."""

    def __init__(self, window: int = 256, hop: int = 128):
        self.window = window
        self.hop = hop

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, idxs, feats, lens = [], [], [], []
        for ref, payload in zip(batch["media_ref"].to_pylist(),
                                batch["payload"].to_pylist()):
            samples = np.frombuffer(payload or b"", dtype=np.uint8)
            if not len(samples):
                continue
            n_win = max(1 + (len(samples) - self.window) // self.hop, 1) \
                if len(samples) >= self.window else 1
            for w in range(n_win):
                seg = samples[w * self.hop: w * self.hop + self.window]
                refs.append(ref)
                idxs.append(w)
                # stand-in "feature": mean energy of the window —
                # deterministic, replaced by a real frontend in prod
                feats.append(float(seg.astype(np.float64).mean()))
                lens.append(len(seg))
        return pa.table({
            "media_ref": pa.array(refs, type=pa.string()),
            "window_index": pa.array(idxs, type=pa.int64()),
            "energy": pa.array(feats, type=pa.float64()),
            "n_samples": pa.array(lens, type=pa.int64()),
        })


def run_media_audio_chunks(sf_dir: str, window: int = 256, hop: int = 128):
    """payload table → windowing stage (audio framing)."""
    from ..sources.corpus import ensure_corpus

    corpus_dir = ensure_corpus(sf_dir)
    media = build_media_table(corpus_dir)
    return media.map_batches(AudioChunker(window, hop),
                             batch_format="pyarrow", batch_size=128)


def run_media_size_stats(sf_dir: str):
    """Histogram of media payload sizes — one row per distinct byte
    length with media count and total bytes — the storage-planning
    profile (batch sizing, block budgets) read off any binary-column
    table.  Unlike the decode stages this is fully SQL-checkable: the
    payload-size contract (``256 + digest[0]·8`` bytes — see
    :func:`dude_ray.sources.corpus.media_payload`) is enforced against
    the real materialized payload bytes, so the driver records that
    the binary column the decode stages consume is byte-sized
    exactly as the generator specifies.

    Scale shape: per-batch (n_bytes → count) partials over the wide
    binary rows (small batch_size, never holding payloads past the
    length computation), tree-merged to ≤256 distinct-length rows."""
    import numpy as np
    import pyarrow.compute as pc

    from ..pipelines.relational import tree_combine
    from ..sources.corpus import ensure_corpus

    corpus_dir = ensure_corpus(sf_dir)
    media = build_media_table(corpus_dir)

    def _partial(batch: pa.Table) -> pa.Table:
        ln = pc.cast(pc.binary_length(batch["payload"]), pa.int64())
        t = pa.table({
            "n_bytes": ln,
            "n_media": pa.array(np.ones(len(batch), dtype=np.int64)),
            "total_bytes": ln,
        })
        g = t.group_by(["n_bytes"]).aggregate(
            [("n_media", "sum"), ("total_bytes", "sum")])
        return pa.table({"n_bytes": g["n_bytes"],
                         "n_media": g["n_media_sum"],
                         "total_bytes": g["total_bytes_sum"]})

    partials = media.map_batches(_partial, batch_format="pyarrow",
                                 batch_size=256)
    return tree_combine(partials, ["n_bytes"],
                        sums=("n_media", "total_bytes")).sort("n_bytes")


def media_size_stats_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_media_size_stats`: media refs are
    enumerated from the rng-determined page structures and their
    contract sizes recomputed by the SAME pure function the corpus
    writer uses; the per-size aggregation is recomputed in SQL from
    the inlined (ref, size) rows."""
    import os

    import pyarrow.parquet as pq

    from ..sources.corpus import (_build_struct, host_boundaries,
                                  media_payload)

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                      "/root/testdata/sf0.01")
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    bounds = host_boundaries(n_docs)
    sizes: list[int] = []
    for i in range(n_docs):
        s = _build_struct(i, "", n_docs, bounds)
        for g in s.groups:
            if g["image"] is not None:
                sizes.append(len(media_payload(g["image"])))
    if not sizes:
        raise ValueError("corpus has no media refs")
    vals = ",".join(f"({n})" for n in sizes)
    return f"""
        WITH m(n_bytes) AS (VALUES {vals})
        SELECT CAST(n_bytes AS BIGINT) AS n_bytes,
               CAST(count(*) AS BIGINT) AS n_media,
               CAST(sum(n_bytes) AS BIGINT) AS total_bytes
        FROM m GROUP BY n_bytes ORDER BY n_bytes
    """
