"""Pinned encoder output: a fixed seeded table must encode to the same
bytes under both shipped configs and under the opt-in snappy outer kind,
and exported ORC files must not change under any compression kind.
Refactors of the write path are judged by these digests — a change here
means the on-disk format moved."""

import hashlib
import io
import json

import numpy as np
import pyarrow as pa
import pytest

from orc_ray.config import EncoderConfig
from orc_ray.pipelines.encode import split_stripes
from orc_ray.selector import SelectorState
from orc_ray.sources.orcwriter import write_orc_file
from orc_ray.sources.tokens import synthesize_tokens
from orc_ray.stripe import encode_table

# (sha256 of blob, sha256 of meta_json) per stripe, in stripe order
PINNED = {
    "default": [
        ("d65c13f1e72fe443ae2d19d81029af0dcf49808ac8b3d963677ebcf5de9b34ac",
         "e9bd7c4e4abf3c436216e9a04ee6cfa6e6979a579321d8539fc6a358d39ad264"),
        ("baff56ce0609c286684a930985fc701ca5d964e74fb97c687db4f25a7e912797",
         "5c567aadd026b4ebe32dd2df8ddc16de02cfc89a33922602e0820467ee29fd5f"),
        ("b605a19dbd19da05b9d8b0c9a5bfa03914bc016d2487cfe657857032d5ea6330",
         "3504398f01e851cad94b82958282aa91f19edb1708e54afb06587d27a768aacc"),
        ("85bdf7549fe9125f413cd389bb8f2dea22f91c16bac414b8b680b8f56e1a94d3",
         "eca973867eb81889cae956b461a09061f782f039ede7734eee23d86429aa180c"),
    ],
    "size_priority": [
        ("d616c9d7a1747eaa913684faf1272c087964d574150189558b1fd69616d8d91b",
         "d73264f3df60b59ccb8e432f040308097b2f9ff642cd70a87b7f53a0c3008bc5"),
        ("e339b0c99279bc7076ed7ba9d5f890280d89a5c70ec2872c8156809fe4579738",
         "7dc57a0749745f5b4dfb55e0b1f156dd759b8b5d2379a888d6ea76153a8834cc"),
        ("d31b90bd24291b4089ddb7b60681f2b5c7217423a026e023464c967210682bda",
         "2ee989c0cbe00ff15ef6a4f99670854c8b4238cf9cb6a0b62a476d7a7f036204"),
        ("be147d80a33d5c99d131886a1c1cd1f849ff9abff9b5642336f418cc89789f1f",
         "3458999b0883c88a42642518814e55332953d3b1a1cdab933937b6c461651d7f"),
    ],
    # FSST against raw only, so doc_id's DATA stream is an FSST stream
    "fsst": [
        ("417aa9fc0139588596c02350bc69de9e88f20ae9a7c9d05fd079c9fff7307d54",
         "d981d2b4efaa765a83c02b3958f1d91c70f30237fc9103b1bdd2a0316d465bd1"),
        ("c0033842ef5ae3ad1e568534db3493dc2dc4ee5d163fb3100dec5b8592b506ff",
         "b20d2213921290d33f9356cb297a972a7554699e5d8f3b6515dc2f82f345df24"),
        ("474422654cd046f13325be15f51daa777e556129ceaf78523337191d0c2dee52",
         "3a5985584032bef6031a56acf4b00a76672db2dacafea3b27c28f7b44b6c396d"),
        ("14c70be99220a3523070240e6e15bec7d923243a9e75f9cf1f66ef793846f621",
         "3b93a9b5eeb5dffabd1f9f3be173b042066791e5b258c520c5b1d36aff1e2d6d"),
    ],
}

# sha256 of the blob only, per stripe: the meta may gain chunk indexes
# on seekable streams without the stored bytes moving
PINNED_BLOBS = {
    "snappy": [
        "549b6b2c8a6201badc1d42f822031e7023b462b85ea8ce3a38d6e1b5da9c4a4a",
        "d538d2aadd6a7cc841f6e3249cfdace03dc730b4681d31d17e2a7e4cb5d23edf",
        "2089fa4ce1cd58e50c37a8aa57f831f57a2950e2856b9a921e6ec01bcdec0864",
        "3859489ee9e1d79dfb01e7447d7048656ef6a0b45b0a62fa87139ada31aae52b",
    ],
}

# sha256 of the whole exported ORC file per CompressionKind
PINNED_ORC = {
    "none": "e156d2322a3438c396b296de896d8f8c9796d05321740959a19efd7dce2c776e",
    "zlib": "9cd8e29b66e6de89886fd74881c1bae9c5937352a59dd07cdd8a28a666d614d4",
    "snappy": "d36ebdd81313e5a681e38e6d4027a85664769aa5751dca65508df011ed4ed8e9",
    "zstd": "74c6245f429b5286ed173880b878c4cf08446ab1895d696d9f29543960cf03d0",
}

CONFIGS = {
    "default": lambda: EncoderConfig(stripe_target_tokens=100_000),
    "size_priority": lambda: EncoderConfig.size_priority(
        stripe_target_tokens=100_000),
    "snappy": lambda: EncoderConfig(stripe_target_tokens=100_000,
                                    outer_compression="snappy"),
    "fsst": lambda: EncoderConfig(stripe_target_tokens=100_000,
                                  string_blob_candidates=("fsst", "none")),
}


def _digests(config: EncoderConfig) -> list[tuple[str, str]]:
    # doc_id, tokens, n_tok, source; ~330k tokens -> 4 stripes, each with
    # seek indexes on its token stream
    table = synthesize_tokens(3000, seed=11, mean_log=4.0)
    selector = SelectorState(config)
    out = []
    for stripe in split_stripes(table, config):
        blob, meta = encode_table(stripe.combine_chunks(), config,
                                  selector=selector, group="web")
        # serialized exactly as the manifest's meta_json column
        meta_json = json.dumps(meta, separators=(",", ":"))
        out.append((hashlib.sha256(blob).hexdigest(),
                    hashlib.sha256(meta_json.encode()).hexdigest()))
    return out


@pytest.mark.parametrize("name", sorted(PINNED))
def test_encoder_output_pinned(name):
    assert _digests(CONFIGS[name]()) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_BLOBS))
def test_encoder_blobs_pinned(name):
    assert [b for b, _ in _digests(CONFIGS[name]())] == PINNED_BLOBS[name]


def _orc_table() -> pa.Table:
    # token columns plus a nullable float and a bool column, so the file
    # carries PRESENT, DATA, LENGTH and dictionary streams
    table = synthesize_tokens(500, seed=7)
    rng = np.random.default_rng(7)
    n = table.num_rows
    floats = pa.array(rng.normal(size=n), mask=rng.random(n) < 0.1)
    return (table.append_column("score", floats)
            .append_column("flag", pa.array(rng.random(n) < 0.3)))


@pytest.mark.parametrize("compression", sorted(PINNED_ORC))
def test_orc_export_pinned(compression):
    buf = io.BytesIO()
    write_orc_file(_orc_table(), buf, compression=compression)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == \
        PINNED_ORC[compression]
