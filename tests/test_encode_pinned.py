"""Pinned encoder output: a fixed seeded table must encode to the same
bytes under both shipped configs. Refactors of the write path are judged
by these digests — a change here means the on-disk format moved."""

import hashlib
import json

import pytest

from orc_ray.config import EncoderConfig
from orc_ray.pipelines.encode import split_stripes
from orc_ray.selector import SelectorState
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
}

CONFIGS = {
    "default": lambda: EncoderConfig(stripe_target_tokens=100_000),
    "size_priority": lambda: EncoderConfig.size_priority(
        stripe_target_tokens=100_000),
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_encoder_output_pinned(name):
    assert _digests(CONFIGS[name]()) == PINNED[name]
