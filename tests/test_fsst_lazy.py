"""The string-blob selector's FSST trial: which codec it picks and the
bytes it writes, on a stripe where FSST cannot win and on a sequence of
stripes sharing one ``SelectorState`` where a later stripe's FSST stream
uses the table of an earlier stripe's sample."""

import hashlib

import numpy as np
import pyarrow as pa

from orc_ray.codecs import fsst
from orc_ray.codecs.dictionary import string_blob
from orc_ray.config import EncoderConfig
from orc_ray.selector import RECHECK_EVERY, SelectorState
from orc_ray.sources.tokens import synthesize_tokens
from orc_ray.stripe import _encode_blob


def _digest(payload, lengths):
    return hashlib.sha256(
        payload + np.ascontiguousarray(lengths, dtype=np.int64).tobytes()
    ).hexdigest()


def _floor(lengths):
    """1 header byte plus one token byte per 8 string bytes."""
    return 1 + int(((lengths + 7) // 8).sum())


def _count_training(monkeypatch):
    """Record the sample blob of every ``fsst.train`` call."""
    samples = []
    train = fsst.train

    def counted(blob, offsets, *args, **kwargs):
        samples.append(bytes(fsst.train_sample(blob, offsets)[0]))
        return train(blob, offsets, *args, **kwargs)

    monkeypatch.setattr(fsst, "train", counted)
    return samples


def test_doc_id_stripe_stays_zstd(monkeypatch):
    """The floor prunes the trial before a table is trained."""
    samples = _count_training(monkeypatch)
    config = EncoderConfig()
    ids = synthesize_tokens(50_000, seed=3, mean_log=1.5).column("doc_id")
    blob, lengths = string_blob(ids.combine_chunks())
    codec, payload, lens = _encode_blob(blob, lengths, config,
                                        SelectorState(config), "web", "doc_id")
    assert codec == "zstd"
    assert _floor(lengths) > len(payload)
    assert _digest(payload, lens) == (
        "82b186b09ce0d6d60072cba40389a29d97af4b5724ee75ea1dbdad2959d13ad3")
    assert samples == []


def _word_blobs():
    """Two blobs over 40 eight-letter words: ``first`` repeats a short
    cycle of word pairs (zstd shrinks it far below the FSST floor),
    ``later`` draws three words per string at random (FSST with a table
    trained on ``first`` beats zstd)."""
    rng = np.random.default_rng(5)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = ["".join(rng.choice(letters, 8)) for _ in range(40)]
    first = [words[i % 40] + words[(i * 7 + 1) % 40] for i in range(20_000)]
    pick = np.random.default_rng(6).integers(0, 40, (20_000, 3))
    later = ["".join(words[j] for j in row) for row in pick.tolist()]
    return (string_blob(pa.array(first)), string_blob(pa.array(later)))


def test_later_stripe_uses_first_stripes_sample(monkeypatch):
    """Stripe 1 runs the full trial and FSST cannot reach zstd's size;
    the next RECHECK_EVERY - 1 stripes reuse the cached winner; stripe
    RECHECK_EVERY + 1 runs the full trial again, and FSST wins with the
    table of stripe 1's sample (its table is not due for retraining)."""
    samples = _count_training(monkeypatch)
    config = EncoderConfig()
    (b1, l1), (b2, l2) = _word_blobs()
    selector = SelectorState(config)
    codecs = []
    for blob, lengths in [(b1, l1)] * RECHECK_EVERY:
        codec, payload, _ = _encode_blob(blob, lengths, config, selector,
                                         "g", "words")
        codecs.append(codec)
        assert _floor(lengths) > len(payload)
    assert samples == []
    codec, payload, lens = _encode_blob(b2, l2, config, selector, "g", "words")
    offsets = np.concatenate([[0], np.cumsum(l1)])
    assert samples == [bytes(fsst.train_sample(
        np.frombuffer(b1, dtype=np.uint8), offsets)[0])]
    assert codecs == ["zstd"] * RECHECK_EVERY and codec == "fsst"
    assert _digest(payload, lens) == (
        "08c969a5857599ed3526a867c85bfeb69c794ed05b1bff5cf5556320aa4952a6")
    # a fresh state trains on the last stripe's own sample: other bytes
    _, fresh, fresh_lens = _encode_blob(b2, l2, config, SelectorState(config),
                                        "g", "words")
    assert _digest(fresh, fresh_lens) != _digest(payload, lens)


def test_may_fit_never_rules_out_a_fitting_table():
    """``may_fit`` is a lower bound: at any trained table's exact output
    size it must still allow FSST. Random blobs over small alphabets
    (many repeated pairs), empty strings and one-byte strings included."""
    rng = np.random.default_rng(7)
    for _ in range(80):
        lengths = rng.integers(0, int(rng.integers(2, 40)), int(rng.integers(1, 300)))
        blob = rng.integers(97, 97 + int(rng.integers(1, 30)),
                            int(lengths.sum())).astype(np.uint8)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        for table in (fsst.train(blob, offsets), fsst.SymbolTable([])):
            size = len(fsst.compress(table, blob, offsets)[0])
            assert fsst.may_fit(blob, offsets, size)
    # near-tight cases: k copies of one 8-byte string under the table of
    # just that symbol (k + 10 bytes against floors of k + 1)
    word = b"qwertyui"
    for k in range(1, 13):
        blob = np.frombuffer(word * k, dtype=np.uint8)
        offsets = np.arange(k + 1) * len(word)
        size = len(fsst.compress(fsst.SymbolTable([word]), blob, offsets)[0])
        assert size == k + 10
        assert fsst.may_fit(blob, offsets, size)


def test_may_fit_rules_out_a_small_dictionary():
    """The 8 source names (34 bytes, no byte pair repeated) cannot
    shrink below raw under any table."""
    names = pa.array(["web", "books", "code", "wiki", "news", "forum",
                      "paper", "chat"])
    blob, lengths = string_blob(names)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    arr = np.frombuffer(blob, dtype=np.uint8)
    assert _floor(lengths) <= len(blob) - 1
    assert not fsst.may_fit(arr, offsets, len(blob) - 1)
